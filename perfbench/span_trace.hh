#pragma once

/**
 * @file
 * Outside-in span recorder. Spans are opened by the benchmark's own
 * code around calls into the program's public functions; nothing inside
 * the program is instrumented. A span's layer is the first dot-separated
 * token of its name (models, engine, core, sim, serve, check, bench).
 *
 * Spans are kept in memory and written once, at the end of a traced
 * run. A disabled tracer records nothing, so an untraced run pays one
 * clock read per call site.
 */

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Record
    {
        std::string name;
        double start = 0.0; ///< seconds since the tracer was created
        double end = 0.0;
        int parent = -1;    ///< index of the enclosing span, -1 = root
        /** Self time handed to another layer without a child span:
         * work the callee performed internally whose total it reports
         * (ServeReport::planWallSeconds is planning inside serve). */
        std::vector<std::pair<std::string, double>> attributed;
    };

    /**
     * RAII span; closes on destruction. It always reads the clock on
     * entry, so seconds() times the call with tracing on or off and both
     * runs share one call site.
     */
    class Span
    {
      public:
        Span(Tracer *tracer, std::string name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        /** Wall seconds since the span opened. */
        double seconds() const;

        /** Move @p seconds of this span's self time to @p layer. */
        void attribute(const std::string &layer, double seconds);

      private:
        Tracer *_tracer; ///< null when tracing is off
        int _index = -1;
        Clock::time_point _start;
    };

    explicit Tracer(bool enabled);
    // Open spans hold the tracer's address.
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span named @p name under the innermost open span. */
    Span
    span(std::string name)
    {
        return Span(_enabled ? this : nullptr, std::move(name));
    }

    const std::vector<Record> &records() const { return _records; }

    /** Total duration of every span named exactly @p name. */
    double total(const std::string &name) const;

    /**
     * Self time per layer: each span's duration minus the union of its
     * children's intervals, less what it attributed elsewhere, summed by
     * layer (attributed seconds land on their target layer).
     */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as JSON (name, start, end, parent). */
    void writeJson(const std::string &path) const;

  private:
    double now() const;

    bool _enabled;
    Clock::time_point _origin;
    std::vector<Record> _records;
    std::vector<int> _open;
};

} // namespace perfbench
