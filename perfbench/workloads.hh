#pragma once

/**
 * @file
 * The benchmark's three workloads, run in this order from one process:
 *
 *  - cold_compile: AD plans at batch 1 for the eight Table-I nets plus
 *    tiny_branchy, each from an empty cost-model store. Every planner
 *    stage does real work and the serving layer does none.
 *  - serve_zoo: open-loop traffic over the Table-I zoo on the whole
 *    mesh: a cold pass that compiles, degrades and writes the plan
 *    store; warm passes over a rate ladder; restarted replicas that
 *    hydrate from the store.
 *  - serve_colo_tiny: latency- and batch-class tinymix traffic on three
 *    disjoint executors with preemption; tens of thousands of requests
 *    whose host cost is the serving loop itself.
 *
 * The arrival shape (Poisson or bursty) is the benchmark workload
 * chosen on the command line; the seed makes every input.
 */

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arrivals.hh"
#include "graph/graph.hh"
#include "serve/serve_loop.hh"
#include "sim/mesh_view.hh"
#include "sim/system.hh"
#include "span_trace.hh"

namespace perfbench {

/** A named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Deterministic (simulated or counted) outputs, compared exactly
 * between the untraced and the traced pass. */
using Digest = std::map<std::string, double>;

/** Correctness bookkeeping for the whole run. */
class Checks
{
  public:
    /** Count @p n checked operations (plans, requests). */
    void attempt(std::uint64_t n = 1) { _attempted += n; }

    /** Fail the run with @p what unless @p ok. */
    void expect(bool ok, const std::string &what);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failures.size(); }
    const std::vector<std::string> &failures() const { return _failures; }

  private:
    std::uint64_t _attempted = 0;
    std::vector<std::string> _failures;
};

/** Everything a workload needs besides its inputs. */
struct Context
{
    ad::sim::SystemConfig system;
    std::string workDir; ///< scratch space for plan stores
    Tracer *tracer = nullptr;
    Checks *checks = nullptr;
    /** Traced pass: also run the outside-in stage decomposition and the
     * direct store and plan_io calls. */
    bool layers = false;
};

/** The cold_compile inputs: nets in a seed-shuffled order. */
struct CompileInputs
{
    std::vector<std::string> names;
    std::vector<ad::graph::Graph> graphs;
};

/** One serving workload's fixed definition and generated traces. */
struct ServeInputs
{
    std::string name;
    std::vector<ClassSpec> classes;       ///< class definitions
    std::vector<ad::sim::MeshView> views; ///< empty = whole mesh
    double refRate = 0.0;                 ///< req/s of cold and reference
    std::vector<double> ladder;           ///< warm-pass rates, req/s
    int coldRequests = 0;                 ///< per class
    int refRequests = 0;                  ///< per class
    int rungRequests = 0;                 ///< per class
    Trace cold;               ///< cold pass; restarted replicas replay it
    Trace ref;                ///< warm reference pass: p50 and p99
    std::vector<Trace> rungs; ///< one trace per ladder rate
};

struct Inputs
{
    CompileInputs compile;
    ServeInputs zoo;
    ServeInputs colo;
};

/**
 * Keeps the calling thread on one CPU of its affinity mask while alive,
 * the @p turn-th modulo their count, then restores the mask.
 * Single-threaded timed repetitions take turns over the CPUs, so their
 * medians average over the cores instead of sampling whichever core
 * the scheduler left the thread on: on a shared host the cores' speeds
 * drift apart for seconds at a time.
 */
class CpuPin
{
  public:
    explicit CpuPin(std::size_t turn);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

  private:
    cpu_set_t _saved;
    bool _pinned = false;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Build every input of a run from @p seed (the timed set-up). */
Inputs makeInputs(std::uint64_t seed, ArrivalShape shape,
                  const ad::sim::SystemConfig &system, Checks &checks,
                  Tracer &tracer);

/** cold_compile state over passes that may be spread across a run. */
struct CompileRun
{
    std::vector<double> passSeconds;        ///< sum of plan walls per call
    std::vector<std::vector<double>> walls; ///< per net, one per pass
    std::vector<ad::sim::ExecutionReport> reports; ///< per net
    std::vector<double> atoms;              ///< per net
    double costHits = 0.0;   ///< cost-model hits during the first pass
    double costMisses = 0.0; ///< cost-model misses during the first pass
};

/** Host-time results of one serving workload. */
struct ServeTimes
{
    std::vector<double> coldSeconds;    ///< cold-pass run() wall
    std::vector<double> ladderSeconds;  ///< warm ladder run() wall per pass
    std::vector<std::vector<double>> rungSeconds; ///< per rung, per pass
    std::vector<double> restartSeconds; ///< restarted-replica run() wall
};

/** The run's fixed workload definitions and seed-made inputs, as JSON. */
std::string describeJson(const Inputs &in);

/** What a run reports: metrics by name, the digest, and human rows. */
struct Report
{
    Metrics endToEnd;
    Metrics perLayer;
    Digest digest;
    std::vector<std::string> lines;             ///< human-readable rows
    std::map<std::string, std::string> details; ///< raw JSON by key
};

/** One timed cold compile of each net in [@p begin, @p end) (all of
 * them by default); a net's first compile also checks its plan and keeps
 * its report, later ones must repeat it bit for bit. */
void compilePass(Context &ctx, const CompileInputs &in, CompileRun &run,
                 std::size_t begin = 0, std::size_t end = SIZE_MAX);

/** cold_compile metrics over the passes run so far; traced, also the
 * stage-by-stage decomposition of every net. */
void reportColdCompile(Context &ctx, const CompileInputs &in,
                       const CompileRun &run, Report &report);

/**
 * One serving workload across a run. prepare() runs the cold pass,
 * warms the cache to a fixed point and checks every plan served; each
 * of coldPass(), restart() and ladderPass() adds one timed repetition
 * and may be interleaved with other work; finish() reports.
 */
class ServeRun
{
  public:
    /** @p keep_warm keeps the warm loop after prepare() for
     * ladderPass(); without it the loop's plans are released. Both
     * arguments must outlive the run. */
    ServeRun(Context &ctx, const ServeInputs &in, bool keep_warm);

    void prepare();

    /** Another cold start on a fresh loop and an empty store. */
    void coldPass();

    /** A fresh loop over the populated store replays the cold trace. */
    void restart();

    /** The warm ladder again (requires keep_warm). */
    void ladderPass();

    /** Metrics and digest; traced, also the direct store reads. */
    void finish(Report &report);

    const ServeTimes &times() const { return _times; }

  private:
    ad::serve::ServeReport runPass(ad::serve::ServeLoop &loop,
                                   const Trace &trace,
                                   const std::string &what, double &wall);
    void addLadderTimes(const std::vector<double> &walls);
    ad::serve::ServeReport coldStart(
        const std::string &dir, std::unique_ptr<ad::serve::ServeLoop> &loop);

    Context &_ctx;
    const ServeInputs &_in;
    bool _keepWarm;
    ad::serve::ServeOptions _options;
    std::unique_ptr<ad::serve::ServeLoop> _warm;
    // Reports without plan DAGs (see withoutDags in workloads.cc).
    ad::serve::ServeReport _cold, _warmCold, _warmRef;
    std::vector<ad::serve::ServeReport> _ladder;
    ad::serve::PlanCacheStats _coldCache;
    ad::serve::PlanStoreStats _storeStats;
    ServeTimes _times;
    double _loopSelf = 0.0;     ///< run() wall less planning, all passes
    double _loopRequests = 0.0; ///< requests over those passes
    std::size_t _turn = 0;      ///< next CPU turn (see CpuPin)
};

} // namespace perfbench
