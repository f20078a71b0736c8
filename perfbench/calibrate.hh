#pragma once

/**
 * @file
 * Host-speed calibration. On a shared host the speed of the benchmark's
 * CPUs moves by half or more over minutes, with every host-time metric
 * moving together. A fixed reference job, timed on each CPU in turn
 * between the timed phases, measures that speed, so the host-time
 * metrics can be reported at one reference speed.
 */

#include <vector>

namespace perfbench {

/** The reference job's time at the reference speed: about its time on
 * a quiet 2.1 GHz Xeon (Sapphire Rapids) core. */
constexpr double kReferenceJobSeconds = 0.020;

/**
 * CPU seconds the calling thread spends on the reference job: sorting,
 * a hash table, a pointer chase through 4 MiB and floating point.
 * Thread CPU time, so time the thread waits for its CPU while another
 * of the process's threads runs there is not counted; only the core's
 * own speed is.
 */
double referenceJobSeconds();

/** Time the reference job once on every usable CPU, appending each
 * time to @p out. */
void calibrate(std::vector<double> &out);

} // namespace perfbench
