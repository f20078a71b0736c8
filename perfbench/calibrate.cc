#include "calibrate.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "arrivals.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile std::uint64_t gSink = 0;

} // namespace

double
referenceJobSeconds()
{
    const double t0 = threadCpuSeconds();
    SplitMix rng(0x5eedULL);
    std::vector<std::uint64_t> keys(1 << 15);
    for (std::uint64_t &k : keys)
        k = rng.next();
    std::sort(keys.begin(), keys.end());

    std::unordered_map<std::uint64_t, std::uint32_t> table;
    for (std::uint32_t i = 0; i < (1u << 13); ++i)
        table.emplace(keys[4 * i], i);
    std::uint64_t acc = 0;
    for (const std::uint64_t k : keys)
        acc += table.count(k);

    // One cycle through 2^20 slots (Sattolo's shuffle), followed from 0.
    std::vector<std::uint32_t> next(1u << 20);
    std::iota(next.begin(), next.end(), 0u);
    for (std::size_t i = next.size() - 1; i > 0; --i)
        std::swap(next[i], next[rng.index(i)]);
    std::uint32_t at = 0;
    for (int step = 0; step < (1 << 17); ++step)
        at = next[at];
    acc += at;

    double x = 0.0;
    for (int i = 1; i < (1 << 16); ++i)
        x += std::sqrt(static_cast<double>(i)) * std::log(static_cast<double>(i));
    acc += static_cast<std::uint64_t>(x) & 1u;
    gSink = gSink + acc;
    return threadCpuSeconds() - t0;
}

void
calibrate(std::vector<double> &out)
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    const int cpus = sched_getaffinity(0, sizeof(mask), &mask) == 0
                         ? std::max(1, CPU_COUNT(&mask))
                         : 1;
    for (int k = 0; k < cpus; ++k) {
        const CpuPin pin(static_cast<std::size_t>(k));
        out.push_back(referenceJobSeconds());
    }
}

} // namespace perfbench
