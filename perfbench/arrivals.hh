#pragma once

/**
 * @file
 * Arrival traces owned by the benchmark: Poisson and two-state bursty
 * open-loop processes whose realized long-run rate matches the nominal
 * one, plus the SLO-class merge the co-location workload serves.
 *
 * Traces are generated at unit rate and time-scaled to each ladder
 * rate, so every rung of a ladder replays the same request sequence
 * (common random numbers): rungs differ only in load, never in which
 * nets arrive or in what order.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request_stream.hh"
#include "util/common.hh"

namespace perfbench {

/** splitmix64: the benchmark's own portable, seedable generator. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : _state(seed) {}

    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Exponential draw with mean 1. */
    double exponential();

    /** Uniform index in [0, n). */
    std::size_t index(std::size_t n);

  private:
    std::uint64_t _state;
};

/** Derive an independent substream seed from @p seed and @p salt. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

enum class ArrivalShape { Poisson, Bursty };

/**
 * Two-state bursty process with deterministic phase lengths: a burst
 * phase at `factor` times the nominal rate fills `burstShare` of every
 * cycle of `cycleArrivals` mean inter-arrival times, and the quiet rate
 * is solved from phase *time* so the long-run mean equals the nominal
 * rate: quiet = (1 - factor * burstShare) / (1 - burstShare).
 */
struct BurstShape
{
    double factor = 2.0;
    double burstShare = 0.25;
    double cycleArrivals = 32.0;

    /** Quiet-phase rate as a multiple of the nominal rate. */
    double quietFactor() const;
};

/** One class's requests at unit rate (time in mean inter-arrivals). */
struct BaseTrace
{
    std::vector<double> times; ///< sorted arrival times, unit rate
    std::vector<int> nets;     ///< mix index per request
};

/** Draw @p n unit-rate arrivals of @p shape over a @p mix_size mix;
 * @p phase in [0, 1) is where in its burst cycle the trace starts. */
BaseTrace makeBaseTrace(ArrivalShape shape, const BurstShape &burst,
                        double phase, int n, std::size_t mix_size,
                        std::uint64_t seed);

/**
 * Check a trace's realized rate, (n - 1) / span at unit rate, against
 * the nominal 1.0. The tolerance is six standard errors of a Poisson
 * count plus two burst cycles of phase truncation; a clamped or
 * mis-solved quiet rate misses it by orders of magnitude. Returns an
 * empty string when the trace passes, else what is wrong.
 */
std::string checkRealizedRate(const BaseTrace &trace, ArrivalShape shape,
                              const BurstShape &burst);

/** One SLO class of a serving workload. */
struct ClassSpec
{
    ad::serve::SloClass slo = ad::serve::SloClass::Latency;
    std::vector<std::string> mix;
    int batch = 1;
    double deadlineMs = 50.0;
    double p99LimitMs = 50.0; ///< latency limit of the SLO check
    double rateShare = 1.0;   ///< share of the rung's total rate
    BaseTrace base;
};

/** A merged trace ready for ServeLoop::run. */
struct Trace
{
    std::vector<ad::serve::Request> requests;
    std::vector<std::string> mix;
};

/**
 * Time-scale every class's base trace to its share of @p rate_per_sec,
 * merge the classes by arrival (ties keep class order) and assign ids
 * in merged order; net indices point into the concatenated mixes.
 */
Trace scaleTrace(const std::vector<ClassSpec> &classes,
                 double rate_per_sec, double freq_ghz);

} // namespace perfbench
