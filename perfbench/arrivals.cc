#include "arrivals.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

namespace perfbench {

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
SplitMix::exponential()
{
    return -std::log1p(-uniform());
}

std::size_t
SplitMix::index(std::size_t n)
{
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    SplitMix mix(seed ^ (salt * 0xd1b54a32d192ed03ULL));
    return mix.next();
}

double
BurstShape::quietFactor() const
{
    return (1.0 - factor * burstShare) / (1.0 - burstShare);
}

BaseTrace
makeBaseTrace(ArrivalShape shape, const BurstShape &burst, double phase,
              int n, std::size_t mix_size, std::uint64_t seed)
{
    SplitMix rng(seed);
    BaseTrace trace;
    trace.times.reserve(static_cast<std::size_t>(n));
    trace.nets.reserve(static_cast<std::size_t>(n));

    const double cycle = burst.cycleArrivals;
    const double burst_len = burst.burstShare * cycle;
    const double quiet = burst.quietFactor();
    const double offset = phase * cycle;
    bool in_burst = offset < burst_len;
    double phase_end = in_burst ? burst_len - offset : cycle - offset;

    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        double need = rng.exponential();
        if (shape == ArrivalShape::Poisson) {
            t += need;
        } else {
            // Time-rescaling through the piecewise-constant rate: walk
            // phase boundaries until the unit-exponential area is spent.
            for (;;) {
                const double rate = in_burst ? burst.factor : quiet;
                const double left = phase_end - t;
                if (rate * left >= need) {
                    t += need / rate;
                    break;
                }
                need -= rate * left;
                t = phase_end;
                in_burst = !in_burst;
                phase_end += in_burst ? burst_len : cycle - burst_len;
            }
        }
        trace.times.push_back(t);
        trace.nets.push_back(static_cast<int>(rng.index(mix_size)));
    }
    return trace;
}

std::string
checkRealizedRate(const BaseTrace &trace, ArrivalShape shape,
                  const BurstShape &burst)
{
    const std::size_t n = trace.times.size();
    if (n < 2)
        return "trace has fewer than two arrivals";
    if (!std::is_sorted(trace.times.begin(), trace.times.end()))
        return "arrivals are not sorted";
    const double span = trace.times.back() - trace.times.front();
    const double realized = static_cast<double>(n - 1) / span;
    const double nd = static_cast<double>(n);
    double tol = 6.0 / std::sqrt(nd);
    if (shape == ArrivalShape::Bursty)
        tol += 2.0 * burst.cycleArrivals / nd;
    if (std::abs(realized - 1.0) > tol) {
        std::ostringstream os;
        os << "realized rate " << realized << "x nominal over " << n
           << " arrivals (tolerance " << tol << ")";
        return os.str();
    }
    return {};
}

Trace
scaleTrace(const std::vector<ClassSpec> &classes, double rate_per_sec,
           double freq_ghz)
{
    Trace out;
    const double cycles_per_sec = freq_ghz * 1e9;
    int net_base = 0;
    std::vector<ad::serve::Request> own, merged;
    for (const ClassSpec &cls : classes) {
        const double class_rate = rate_per_sec * cls.rateShare;
        const auto deadline = static_cast<ad::Cycles>(
            std::llround(cls.deadlineMs * 1e-3 * cycles_per_sec));
        own.clear();
        own.reserve(cls.base.times.size());
        for (std::size_t i = 0; i < cls.base.times.size(); ++i) {
            ad::serve::Request r;
            r.net = net_base + cls.base.nets[i];
            r.arrival = static_cast<ad::Cycles>(std::llround(
                cls.base.times[i] / class_rate * cycles_per_sec));
            r.deadline = r.arrival + deadline;
            r.batch = cls.batch;
            r.slo = cls.slo;
            own.push_back(r);
        }
        // Each class arrives in order; std::merge is stable, so equal
        // arrivals keep class order.
        merged.clear();
        merged.reserve(out.requests.size() + own.size());
        std::merge(out.requests.begin(), out.requests.end(), own.begin(),
                   own.end(), std::back_inserter(merged),
                   [](const ad::serve::Request &a,
                      const ad::serve::Request &b) {
                       return a.arrival < b.arrival;
                   });
        out.requests.swap(merged);
        out.mix.insert(out.mix.end(), cls.mix.begin(), cls.mix.end());
        net_base += static_cast<int>(cls.mix.size());
    }
    for (std::size_t i = 0; i < out.requests.size(); ++i)
        out.requests[i].id = static_cast<int>(i);
    return out;
}

} // namespace perfbench
