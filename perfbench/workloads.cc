#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>

#include "baselines/planners.hh"
#include "check/conservation.hh"
#include "core/atom_generator.hh"
#include "core/atomic_dag.hh"
#include "core/orchestrator.hh"
#include "core/plan_io.hh"
#include "core/scheduler.hh"
#include "core/shape_catalog.hh"
#include "core/validation.hh"
#include "engine/cached_cost_model.hh"
#include "engine/cost_model.hh"
#include "json_out.hh"
#include "models/models.hh"
#include "serve/plan_cache.hh"
#include "serve/plan_store.hh"
#include "util/thread_pool.hh"

namespace perfbench {

namespace fs = std::filesystem;
using ad::serve::SloClass;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// ---- Workload definitions --------------------------------------------
//
// serve_zoo brackets the whole-mesh knee: with batch-1 zoo traffic the
// queue starts refusing work between 600 and 700 req/s under Poisson
// arrivals and near 550 under bursts, so the ladder runs from below both
// to above them in 4% steps. The reference rate (0.7 of the knee) keeps
// queueing in the median without a mass of zero-wait requests pinning
// it to one net's service time. The tail of zoo traffic comes in few
// long busy periods (service times span 0.16 to 3.7 ms), so p99 needs
// long traces to repeat across seeds: 15000 requests at the reference
// rate, 2500 per rung. The cold pass replays a short trace, so that its
// tail is the compile stalls of the cold start.
constexpr double kZooRefRate = 450.0;
constexpr int kZooColdRequests = 1000;
constexpr int kZooRefRequests = 15000;
constexpr double kZooLadderLow = 420.0;
constexpr double kZooLadderStep = 1.04;
constexpr int kZooLadderRungs = 17;
constexpr int kZooRungRequests = 2500;
constexpr double kZooDeadlineMs = 50.0;

// serve_colo_tiny: half the traffic is latency-class tinymix at batch 1
// (it may preempt), half is batch-class tinymix at batch 8, on the
// 4x4@0,0 / 4x4@4,0 / 8x4@0,4 split with area-proportional HBM shares.
// The ladder spans the three executors' joint capacity in 4% steps; the
// latency class's p99 limit binds before the queue refuses work.
constexpr double kColoRefRate = 40000.0;
constexpr int kColoColdRequests = 2000; // per class
constexpr int kColoRefRequests = 10000; // per class
constexpr double kColoLadderLow = 30000.0;
constexpr double kColoLadderStep = 1.04;
constexpr int kColoLadderRungs = 38;
constexpr int kColoRungRequests = 2000; // per class
constexpr int kColoBatch = 8;
constexpr double kColoLatencyDeadlineMs = 1.0;
constexpr double kColoLatencyLimitMs = 0.1;
constexpr double kColoBatchDeadlineMs = 10.0;
constexpr double kColoBatchLimitMs = 0.25;

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

std::vector<double>
geometricLadder(double low, double step, int rungs)
{
    std::vector<double> rates;
    for (int i = 0; i < rungs; ++i)
        rates.push_back(std::round(low * std::pow(step, i)));
    return rates;
}

std::string
fmt(double v, int digits)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << v;
    return os.str();
}

ServeInputs
makeServeInputs(ServeInputs in, ArrivalShape shape, std::uint64_t seed,
                double freq_ghz, Checks &checks)
{
    const BurstShape burst;
    // Base traces per (trace, class), each from its own substream. The
    // classes of one trace share the burst phase, so bursts hit the
    // whole machine at once.
    const auto traces = [&](ArrivalShape kind, int requests,
                            std::uint64_t salt) {
        const double phase = SplitMix(subSeed(seed, 16 * salt)).uniform();
        std::vector<ClassSpec> classes = in.classes;
        for (std::size_t k = 0; k < classes.size(); ++k) {
            ClassSpec &c = classes[k];
            c.base = makeBaseTrace(kind, burst, phase, requests, c.mix.size(),
                                   subSeed(seed, 16 * salt + k + 1));
            const std::string err = checkRealizedRate(c.base, kind, burst);
            checks.expect(err.empty(), in.name + " arrivals: " + err);
        }
        return classes;
    };
    // The cold pass is Poisson under either shape: its tail rests on the
    // few compile stalls of one cold start, and bursts landing on them
    // would make it a draw on burst timing rather than a measurement.
    in.cold = scaleTrace(traces(ArrivalShape::Poisson, in.coldRequests, 1),
                         in.refRate, freq_ghz);
    in.ref = scaleTrace(traces(shape, in.refRequests, 2), in.refRate,
                        freq_ghz);
    const std::vector<ClassSpec> rung = traces(shape, in.rungRequests, 3);
    for (const double rate : in.ladder)
        in.rungs.push_back(scaleTrace(rung, rate, freq_ghz));
    return in;
}

/**
 * Hand memory freed by the previous phase back to the system, from every
 * malloc arena, so the process's peak resident set measures one phase's
 * working set rather than how the planner's threads happened to leave
 * their arenas.
 */
void
releaseFreedMemory()
{
    malloc_trim(0);
}

/** Structural checks every served trace must pass. */
void
checkAccounting(Checks &checks, const std::string &what,
                const ad::serve::ServeReport &r, const Trace &trace)
{
    const std::uint64_t sent = trace.requests.size();
    checks.attempt(sent);
    checks.expect(r.outcomes.size() == sent,
                  what + ": outcome count differs from requests sent");
    checks.expect(r.admitted + r.rejected == sent,
                  what + ": admitted + rejected != sent");
    checks.expect(r.completed == r.admitted, what + ": completed != admitted");
}

/**
 * Plan checks: a valid schedule, a conserving execution, optionally a
 * bit-identical re-execution and a bit-identical plan_io round trip.
 * @p system is the machine the plan was made for (a view's own system
 * for sub-mesh plans).
 */
void
checkPlan(Context &ctx, const std::string &what,
          const ad::core::PlanResult &plan, const ad::sim::SystemConfig &base,
          const ad::sim::MeshView &view, bool deep)
{
    Tracer &tr = *ctx.tracer;
    Checks &checks = *ctx.checks;
    if (!plan.dag) {
        checks.expect(false, what + ": plan has no atomic DAG");
        return;
    }
    const ad::sim::SystemConfig system = ad::sim::viewSystem(base, view);
    {
        auto sp = tr.span("core.validateSchedule");
        const auto v = ad::core::validateSchedule(*plan.dag, plan.schedule,
                                                  system.engines());
        checks.expect(v.empty(), what + ": invalid schedule: " +
                                     (v.empty() ? "" : v.front().what));
    }
    {
        auto sp = tr.span("check.auditExecution");
        const auto a = ad::check::auditExecution(*plan.dag, plan.schedule,
                                                 system, plan.report);
        checks.expect(a.empty(), what + ": audit: " +
                                     (a.empty() ? "" : a.front().what));
    }
    if (!deep)
        return;
    {
        auto sp = tr.span("sim.SystemSimulator.execute");
        const ad::sim::SystemSimulator simulator(base, view);
        const auto again = simulator.execute(*plan.dag, plan.schedule);
        checks.expect(again.bitIdentical(plan.report),
                      what + ": re-execution differs from the plan's report");
    }
    std::string bytes;
    {
        auto sp = tr.span("core.encodePlanResult");
        bytes = ad::core::encodePlanResult(plan);
    }
    std::optional<ad::core::PlanResult> decoded;
    {
        auto sp = tr.span("core.decodePlanResult");
        decoded = ad::core::decodePlanResult(bytes);
    }
    checks.expect(decoded && decoded->report.bitIdentical(plan.report) &&
                      ad::core::encodePlanResult(*decoded) == bytes,
                  what + ": plan_io round trip is not bit-identical");
}

/** Per-net sums of the outside-in stage decomposition. */
struct StageSums
{
    double catalog = 0, sa = 0, dag = 0, engine = 0, sched = 0, map = 0,
           exec = 0;
    double iterations = 0, accepted = 0, atoms = 0, dagBytes = 0,
           rounds = 0, evaluations = 0;
};

/**
 * Re-run the planner's stages one by one from outside on @p graph: the
 * exact shape catalog, SA atom generation, the atomic DAG, a direct
 * cost-model pass over its atoms, the default-mode DP schedule, mapping
 * and simulation. Each call is its own span.
 */
void
decomposeStages(Context &ctx, const std::string &name,
                const ad::graph::Graph &graph, StageSums &sums)
{
    using namespace ad;
    Tracer &tr = *ctx.tracer;
    const sim::SystemConfig &system = ctx.system;
    const core::OrchestratorOptions defaults;
    engine::CachedCostModel::clearSharedStores();
    const engine::CachedCostModel model(system.engine, system.dataflow);

    std::unique_ptr<core::ShapeCatalog> catalog;
    {
        auto sp = tr.span("core.ShapeCatalog");
        catalog = std::make_unique<core::ShapeCatalog>(graph, model);
        sums.catalog += sp.seconds();
    }
    core::GenerationResult gen;
    {
        auto sp = tr.span("core.SaAtomGenerator.generate");
        gen = core::SaAtomGenerator(defaults.sa).generate(*catalog);
        sums.sa += sp.seconds();
    }
    sums.iterations += gen.iterations;
    sums.accepted += gen.acceptedMoves;

    core::AtomicDagOptions dag_options;
    dag_options.batch = 1;
    dag_options.bytesPerElem = system.engine.bytesPerElem;
    std::unique_ptr<core::AtomicDag> dag;
    {
        auto sp = tr.span("core.AtomicDag");
        dag = std::make_unique<core::AtomicDag>(graph, gen.shapes,
                                                dag_options);
        sums.dag += sp.seconds();
    }
    sums.atoms += static_cast<double>(dag->size());
    sums.dagBytes += static_cast<double>(dag->memoryBytes());

    {
        auto sp = tr.span("engine.CostModel.evaluate");
        const engine::CostModel exact(system.engine, system.dataflow);
        Cycles total = 0;
        for (std::size_t a = 0; a < dag->size(); ++a) {
            total += exact.evaluate(dag->workload(static_cast<core::AtomId>(a)))
                         .cycles;
        }
        sums.engine += sp.seconds();
        ctx.checks->expect(total > 0, name + ": atoms cost zero cycles");
    }
    sums.evaluations += static_cast<double>(dag->size());

    core::SchedulerOptions sched_options = defaults.scheduler;
    sched_options.engines = system.engines();
    core::RoundList rounds;
    core::SchedMode mode{};
    {
        auto sp = tr.span("core.DpScheduler.schedule");
        const core::DpScheduler scheduler(*dag, model, sched_options);
        rounds = scheduler.schedule();
        mode = scheduler.effectiveMode();
        sums.sched += sp.seconds();
    }
    sums.rounds += static_cast<double>(rounds.size());
    core::Schedule schedule;
    {
        auto sp = tr.span("core.Orchestrator.mapRounds");
        schedule = core::Orchestrator(system).mapRounds(*dag, rounds, mode);
        sums.map += sp.seconds();
    }
    sim::ExecutionReport report;
    {
        auto sp = tr.span("sim.SystemSimulator.execute");
        report = sim::SystemSimulator(system).execute(*dag, schedule);
        sums.exec += sp.seconds();
    }
    ctx.checks->expect(
        core::validateSchedule(*dag, schedule, system.engines()).empty() &&
            report.totalCycles > 0,
        name + ": stage-by-stage plan is invalid");
}

/** Mean of start - arrival over admitted requests in [lo, hi). */
double
meanWait(const ad::serve::ServeReport &r, std::size_t lo, std::size_t hi)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi; ++i) {
        const auto &o = r.outcomes[i];
        if (o.admitted) {
            sum += static_cast<double>(o.start - o.arrival);
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** A backlog grows when the second half of the trace waits more than
 * twice as long as the first, beyond a twentieth of the tightest
 * latency limit. */
bool
growingBacklog(const ad::serve::ServeReport &r, double limit_ms,
               double freq_ghz)
{
    const std::size_t half = r.outcomes.size() / 2;
    const double slack = 0.05 * limit_ms * freq_ghz * 1e6;
    return meanWait(r, half, r.outcomes.size()) >
           2.0 * meanWait(r, 0, half) + slack;
}

/** @p r with every plan replaced by a DAG-less copy holding only its
 * report: enough for ServeReport::bitIdentical, a fraction of the
 * memory. */
ad::serve::ServeReport
withoutDags(const ad::serve::ServeReport &r)
{
    ad::serve::ServeReport out = r;
    std::map<const ad::core::PlanResult *,
             std::shared_ptr<const ad::core::PlanResult>>
        light;
    for (auto &o : out.outcomes) {
        if (!o.plan)
            continue;
        auto &copy = light[o.plan.get()];
        if (!copy) {
            auto plan = std::make_shared<ad::core::PlanResult>();
            plan->report = o.plan->report;
            copy = std::move(plan);
        }
        o.plan = copy;
    }
    return out;
}

double
classP99(const ad::serve::ServeReport &r, SloClass slo)
{
    for (const auto &c : r.classes) {
        if (c.slo == slo)
            return c.p99LatencyMs;
    }
    return 0.0;
}

} // namespace

CpuPin::CpuPin(std::size_t turn)
{
    // Pool workers inherit the mask of the thread that starts them:
    // start them before pinning.
    ad::util::ThreadPool::global();
    CPU_ZERO(&_saved);
    if (sched_getaffinity(0, sizeof(_saved), &_saved) != 0)
        return;
    const auto count = static_cast<std::size_t>(CPU_COUNT(&_saved));
    if (count < 2)
        return;
    std::size_t skip = turn % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &_saved) || skip-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        _pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
        return;
    }
}

CpuPin::~CpuPin()
{
    if (_pinned)
        sched_setaffinity(0, sizeof(_saved), &_saved);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
Checks::expect(bool ok, const std::string &what)
{
    if (!ok)
        _failures.push_back(what);
}

Inputs
makeInputs(std::uint64_t seed, ArrivalShape shape,
           const ad::sim::SystemConfig &system, Checks &checks,
           Tracer &tracer)
{
    auto top = tracer.span("bench.setup");
    Inputs in;
    const double freq = system.engine.freqGhz;

    for (const auto &entry : ad::models::tableOneModels())
        in.compile.names.push_back(entry.name);
    in.compile.names.push_back("tiny_branchy");
    // Seeded compile order, so no net always runs first in the process.
    SplitMix order(subSeed(seed, 100));
    for (std::size_t i = in.compile.names.size(); i > 1; --i)
        std::swap(in.compile.names[i - 1], in.compile.names[order.index(i)]);
    for (const std::string &name : in.compile.names) {
        auto sp = tracer.span("models.buildByName");
        in.compile.graphs.push_back(ad::models::buildByName(name));
    }

    ClassSpec zoo_class;
    zoo_class.mix = ad::serve::resolveMix("zoo");
    zoo_class.deadlineMs = kZooDeadlineMs;
    zoo_class.p99LimitMs = kZooDeadlineMs;
    ServeInputs zoo;
    zoo.name = "serve_zoo";
    zoo.classes = {zoo_class};
    zoo.refRate = kZooRefRate;
    zoo.ladder = geometricLadder(kZooLadderLow, kZooLadderStep,
                                 kZooLadderRungs);
    zoo.coldRequests = kZooColdRequests;
    zoo.refRequests = kZooRefRequests;
    zoo.rungRequests = kZooRungRequests;
    in.zoo = makeServeInputs(std::move(zoo), shape, subSeed(seed, 200),
                             freq, checks);

    ClassSpec lat;
    lat.slo = SloClass::Latency;
    lat.mix = ad::serve::resolveMix("tinymix");
    lat.deadlineMs = kColoLatencyDeadlineMs;
    lat.p99LimitMs = kColoLatencyLimitMs;
    lat.rateShare = 0.5;
    ClassSpec bat = lat;
    bat.slo = SloClass::Batch;
    bat.batch = kColoBatch;
    bat.deadlineMs = kColoBatchDeadlineMs;
    bat.p99LimitMs = kColoBatchLimitMs;
    const auto view = [](int w, int h, int x, int y) {
        ad::sim::MeshView v;
        v.x0 = x;
        v.y0 = y;
        v.width = w;
        v.height = h;
        v.hbmShare = (w * h) / 64.0;
        return v;
    };
    ServeInputs colo;
    colo.name = "serve_colo_tiny";
    colo.classes = {lat, bat};
    colo.views = {view(4, 4, 0, 0), view(4, 4, 4, 0), view(8, 4, 0, 4)};
    colo.refRate = kColoRefRate;
    colo.ladder = geometricLadder(kColoLadderLow, kColoLadderStep,
                                  kColoLadderRungs);
    colo.coldRequests = kColoColdRequests;
    colo.refRequests = kColoRefRequests;
    colo.rungRequests = kColoRungRequests;
    in.colo = makeServeInputs(std::move(colo), shape, subSeed(seed, 300),
                              freq, checks);
    return in;
}

void
compilePass(Context &ctx, const CompileInputs &in, CompileRun &run,
            std::size_t begin, std::size_t end)
{
    using namespace ad;
    Tracer &tr = *ctx.tracer;
    Checks &checks = *ctx.checks;
    auto top = tr.span("bench.cold_compile");
    const auto planner =
        baselines::makePlanner({"AD", ctx.system, {}, {}});

    const std::size_t n = in.names.size();
    if (run.walls.empty()) {
        run.walls.assign(n, {});
        run.reports.assign(n, {});
        run.atoms.assign(n, 0.0);
    }
    double sum = 0.0;
    for (std::size_t i = begin; i < std::min(end, n); ++i) {
        const bool first = run.walls[i].empty();
        engine::CachedCostModel::clearSharedStores();
        releaseFreedMemory();
        core::PlanResult plan;
        double wall = 0.0;
        {
            auto sp = tr.span("core.Planner.plan");
            plan = planner->plan(in.graphs[i]);
            wall = sp.seconds();
        }
        sum += wall;
        run.walls[i].push_back(wall);
        checks.attempt();
        if (!first) {
            checks.expect(plan.report.bitIdentical(run.reports[i]),
                          in.names[i] + ": repeat plan differs");
            continue;
        }
        const engine::CachedCostModel store(ctx.system.engine,
                                            ctx.system.dataflow);
        run.costHits += static_cast<double>(store.hits());
        run.costMisses += static_cast<double>(store.misses());
        // Checked as soon as it exists; only the report is kept, so peak
        // memory is one plan's, not the whole zoo's.
        checkPlan(ctx, "cold_compile " + in.names[i], plan, ctx.system, {},
                  true);
        run.atoms[i] = plan.dag ? static_cast<double>(plan.dag->size()) : 0.0;
        run.reports[i] = plan.report;
    }
    run.passSeconds.push_back(sum);
}

void
reportColdCompile(Context &ctx, const CompileInputs &in,
                  const CompileRun &run, Report &report)
{
    using namespace ad;
    Tracer &tr = *ctx.tracer;
    Checks &checks = *ctx.checks;
    const std::size_t n = in.names.size();
    const auto &reports = run.reports;
    const auto &atoms = run.atoms;
    const auto &walls = run.walls;

    // Name order, so the sums below do not depend on the compile order.
    std::vector<std::size_t> by_name(n);
    for (std::size_t i = 0; i < n; ++i)
        by_name[i] = i;
    std::sort(by_name.begin(), by_name.end(),
              [&in](std::size_t a, std::size_t b) {
                  return in.names[a] < in.names[b];
              });
    double compile_s = 0.0, log_cycles = 0.0, log_energy = 0.0;
    std::ostringstream rows;
    report.lines.push_back("cold_compile: net, median plan wall (s), "
                           "atoms, cycles, energy (uJ)");
    for (const std::size_t i : by_name) {
        const double wall = median(walls[i]);
        compile_s += wall;
        const double cycles = static_cast<double>(reports[i].totalCycles);
        const double energy_uj = reports[i].totalEnergyPj() * 1e-6;
        checks.expect(cycles > 0 && energy_uj > 0,
                      in.names[i] + ": empty plan report");
        log_cycles += std::log(std::max(cycles, 1.0));
        log_energy += std::log(std::max(energy_uj, 1e-12));
        const std::string key = "cold_compile." + in.names[i];
        report.digest[key + ".cycles"] = cycles;
        report.digest[key + ".energy_uj"] = energy_uj;
        report.digest[key + ".atoms"] = atoms[i];
        report.digest[key + ".rounds"] =
            static_cast<double>(reports[i].rounds);
        report.lines.push_back("  " + in.names[i] + "  " +
                               fmt(wall, 3) + "  " +
                               fmt(atoms[i], 0) + "  " + fmt(cycles, 0) +
                               "  " + fmt(energy_uj, 1));
        rows << (rows.tellp() > 0 ? ", " : "") << "{\"net\": "
             << jsonString(in.names[i]) << ", \"plan_s\": " << jsonNumber(wall)
             << ", \"atoms\": " << jsonNumber(atoms[i])
             << ", \"cycles\": " << jsonNumber(cycles)
             << ", \"energy_uj\": " << jsonNumber(energy_uj) << "}";
    }
    report.details["cold_compile.nets"] = "[" + rows.str() + "]";
    const double nd = static_cast<double>(n);
    const double cycles_gm = std::exp(log_cycles / nd);
    const double energy_gm = std::exp(log_energy / nd);
    report.digest["cold_compile.plan_cycles_gm"] = cycles_gm;
    report.digest["cold_compile.plan_energy_gm_uj"] = energy_gm;
    // Per-net medians: a neighbour's burst of work slows one plan of one
    // pass, not every pass of the sum.
    report.endToEnd["cold_compile.compile_s"] = {compile_s, "s"};
    report.endToEnd["cold_compile.plan_cycles_gm"] = {cycles_gm, "cycles"};
    report.endToEnd["cold_compile.plan_energy_gm_uj"] = {energy_gm, "uJ"};

    if (!ctx.layers)
        return;

    StageSums s;
    for (std::size_t i = 0; i < n; ++i) {
        auto sp = tr.span("bench.stages");
        decomposeStages(ctx, in.names[i], in.graphs[i], s);
    }
    Metrics &m = report.perLayer;
    const double hits = run.costHits, misses = run.costMisses;
    m["cold_compile.core.plan_s"] = {run.passSeconds.front(), "s"};
    m["cold_compile.engine.cost.misses"] = {misses, "count"};
    m["cold_compile.engine.cost.hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    m["cold_compile.engine.eval_s"] = {s.engine, "s"};
    m["cold_compile.engine.evaluations"] = {s.evaluations, "count"};
    m["cold_compile.core.catalog_s"] = {s.catalog, "s"};
    m["cold_compile.core.sa_s"] = {s.sa, "s"};
    m["cold_compile.core.sa.iterations"] = {s.iterations, "count"};
    m["cold_compile.core.sa.accept_ratio"] = {
        s.iterations > 0 ? s.accepted / s.iterations : 0.0, "ratio"};
    m["cold_compile.core.dag_s"] = {s.dag, "s"};
    m["cold_compile.core.dag.atoms"] = {s.atoms, "count"};
    m["cold_compile.core.dag.mb"] = {s.dagBytes / kMiB, "MiB"};
    m["cold_compile.core.sched_s"] = {s.sched, "s"};
    m["cold_compile.core.sched.rounds"] = {s.rounds, "count"};
    m["cold_compile.core.map_s"] = {s.map, "s"};
    m["cold_compile.sim.exec_s"] = {s.exec, "s"};
    m["cold_compile.sim.atoms_per_s"] = {s.exec > 0 ? s.atoms / s.exec : 0.0,
                                         "1/s"};
}

ServeRun::ServeRun(Context &ctx, const ServeInputs &in, bool keep_warm)
    : _ctx(ctx), _in(in), _keepWarm(keep_warm)
{
    _options.submeshes = in.views;
    _options.storeDir = ctx.workDir + "/" + in.name + "_store";
}

ad::serve::ServeReport
ServeRun::runPass(ad::serve::ServeLoop &loop, const Trace &trace,
                  const std::string &what, double &wall)
{
    auto sp = _ctx.tracer->span("serve.ServeLoop.run");
    ad::serve::ServeReport r = loop.run(trace.requests, trace.mix);
    wall = sp.seconds();
    sp.attribute("core", r.planWallSeconds);
    // Host work of the serving loop itself: run() wall less the planning
    // it reports.
    _loopSelf += wall - r.planWallSeconds;
    _loopRequests += static_cast<double>(trace.requests.size());
    checkAccounting(*_ctx.checks, _in.name + " " + what, r, trace);
    return r;
}

ad::serve::ServeReport
ServeRun::coldStart(const std::string &dir,
                    std::unique_ptr<ad::serve::ServeLoop> &loop)
{
    // A cold start has nothing: no plan store on disk, no memoized
    // cost-model results in the process.
    loop.reset();
    fs::remove_all(dir);
    ad::engine::CachedCostModel::clearSharedStores();
    releaseFreedMemory();
    auto sp = _ctx.tracer->span("bench.cold_pass");
    ad::serve::ServeOptions options = _options;
    options.storeDir = dir;
    loop = std::make_unique<ad::serve::ServeLoop>(_ctx.system, options);
    double wall = 0.0;
    ad::serve::ServeReport r = runPass(*loop, _in.cold, "cold pass", wall);
    _times.coldSeconds.push_back(wall);
    return r;
}

void
ServeRun::prepare()
{
    using namespace ad;
    Tracer &tr = *_ctx.tracer;
    Checks &checks = *_ctx.checks;
    auto top = tr.span("bench." + _in.name + ".prepare");

    serve::ServeReport cold = coldStart(_options.storeDir, _warm);
    _coldCache = _warm->cache().stats();

    // Warm the cache to a fixed point over every trace of the workload:
    // a rate can reach (net, view) keys others never planned. After an
    // all-hit iteration each pass is a pure function of its trace.
    serve::ServeReport warm_cold, warm_ref;
    std::vector<serve::ServeReport> warm(_in.rungs.size());
    bool all_hit = false;
    for (int it = 0; it < 8 && !all_hit; ++it) {
        auto sp = tr.span("bench.warm_ladder");
        double wall = 0.0;
        warm_cold = runPass(*_warm, _in.cold, "warm cold-trace pass", wall);
        warm_ref = runPass(*_warm, _in.ref, "warm reference pass", wall);
        all_hit = warm_cold.cacheMisses == 0 && warm_ref.cacheMisses == 0;
        std::vector<double> walls;
        for (std::size_t k = 0; k < _in.rungs.size(); ++k) {
            const CpuPin pin(_turn++);
            warm[k] = runPass(*_warm, _in.rungs[k], "warm ladder pass", wall);
            walls.push_back(wall);
            all_hit = all_hit && warm[k].cacheMisses == 0;
        }
        if (all_hit)
            addLadderTimes(walls);
    }
    checks.expect(all_hit, _in.name + ": warm passes reached no all-hit "
                                      "fixed point");
    _storeStats = _warm->store()->stats();

    // Every distinct plan served by the cold and the warm reference pass.
    {
        auto sp = tr.span("bench.check_plans");
        std::set<const core::PlanResult *> seen;
        for (const serve::ServeReport *r : {&cold, &warm_ref}) {
            for (const auto &o : r->outcomes) {
                if (!o.plan || !seen.insert(o.plan.get()).second)
                    continue;
                const sim::MeshView view =
                    _in.views.empty()
                        ? sim::MeshView{}
                        : _in.views[static_cast<std::size_t>(o.submesh)];
                checkPlan(_ctx, _in.name + " " + o.net, *o.plan, _ctx.system,
                          view, false);
            }
        }
    }

    // From here on only the reports are needed, not the plans: replicas
    // measured later must not find this one's plans still resident.
    _cold = withoutDags(cold);
    _warmCold = withoutDags(warm_cold);
    _warmRef = withoutDags(warm_ref);
    for (const serve::ServeReport &r : warm)
        _ladder.push_back(withoutDags(r));
    if (!_keepWarm)
        _warm.reset();
}

void
ServeRun::coldPass()
{
    std::unique_ptr<ad::serve::ServeLoop> loop;
    const std::string dir = _ctx.workDir + "/" + _in.name + "_cold_store";
    const ad::serve::ServeReport r = coldStart(dir, loop);
    _ctx.checks->expect(r.bitIdentical(_cold),
                        _in.name + ": repeated cold pass differs");
    loop.reset();
    fs::remove_all(dir);
}

void
ServeRun::restart()
{
    releaseFreedMemory();
    auto sp = _ctx.tracer->span("bench.restart");
    const CpuPin pin(_turn++);
    // An empty memory tier over the store the cold pass populated.
    ad::serve::ServeLoop fresh(_ctx.system, _options);
    double wall = 0.0;
    const auto r = runPass(fresh, _in.cold, "restart pass", wall);
    _times.restartSeconds.push_back(wall);
    _ctx.checks->expect(r.bitIdentical(_warmCold),
                        _in.name + ": restarted replica differs from the "
                                   "warm pass");
}

void
ServeRun::ladderPass()
{
    auto sp = _ctx.tracer->span("bench.warm_ladder");
    double wall = 0.0;
    std::vector<double> walls;
    for (std::size_t k = 0; k < _in.rungs.size(); ++k) {
        const CpuPin pin(_turn++);
        const auto r = runPass(*_warm, _in.rungs[k], "warm ladder pass", wall);
        walls.push_back(wall);
        _ctx.checks->expect(r.bitIdentical(_ladder[k]),
                            _in.name + ": repeated warm pass differs");
    }
    addLadderTimes(walls);
}

void
ServeRun::addLadderTimes(const std::vector<double> &walls)
{
    double wall = 0.0;
    _times.rungSeconds.resize(walls.size());
    for (std::size_t k = 0; k < walls.size(); ++k) {
        _times.rungSeconds[k].push_back(walls[k]);
        wall += walls[k];
    }
    _times.ladderSeconds.push_back(wall);
}

void
ServeRun::finish(Report &report)
{
    using namespace ad;
    Tracer &tr = *_ctx.tracer;
    Checks &checks = *_ctx.checks;
    const sim::SystemConfig &system = _ctx.system;
    const double freq = system.engine.freqGhz;
    _warm.reset();

    double max_rps = 0.0, sent = 0.0, failed = 0.0, rejected = 0.0;
    double limit_min = 1e300;
    for (const ClassSpec &c : _in.classes)
        limit_min = std::min(limit_min, c.p99LimitMs);
    std::ostringstream ladder_json;
    report.lines.push_back(_in.name + ": warm ladder: rate (req/s), p50 "
                                      "(ms), p99 (ms), rejected, deadline "
                                      "misses, meets SLO");
    for (std::size_t k = 0; k < _ladder.size(); ++k) {
        const serve::ServeReport &r = _ladder[k];
        bool ok = r.rejected == 0 && !growingBacklog(r, limit_min, freq);
        for (const ClassSpec &c : _in.classes)
            ok = ok && classP99(r, c.slo) <= c.p99LimitMs;
        if (ok)
            max_rps = std::max(max_rps, _in.ladder[k]);
        sent += static_cast<double>(r.outcomes.size());
        failed += static_cast<double>(r.rejected + r.deadlineMisses);
        rejected += static_cast<double>(r.rejected);
        const std::string key =
            _in.name + ".rung" + std::to_string(k) + ".";
        report.digest[key + "p99_ms"] = r.p99LatencyMs;
        report.digest[key + "rejected"] = static_cast<double>(r.rejected);
        report.digest[key + "makespan"] = static_cast<double>(r.makespan);
        std::string classes;
        for (const auto &c : r.classes) {
            classes += std::string("  ") + serve::sloClassName(c.slo) +
                       " p99 " + fmt(c.p99LatencyMs, 3);
        }
        report.lines.push_back(
            "  " + fmt(_in.ladder[k], 0) + "  " + fmt(r.p50LatencyMs, 3) +
            "  " + fmt(r.p99LatencyMs, 3) + "  " + std::to_string(r.rejected) +
            "  " + std::to_string(r.deadlineMisses) + "  " +
            (ok ? "yes" : "no") + (r.classes.size() > 1 ? classes : ""));
        ladder_json << (k ? ", " : "") << "{\"rate\": "
                    << jsonNumber(_in.ladder[k])
                    << ", \"p50_ms\": " << jsonNumber(r.p50LatencyMs)
                    << ", \"p99_ms\": " << jsonNumber(r.p99LatencyMs)
                    << ", \"rejected\": " << r.rejected
                    << ", \"deadline_misses\": " << r.deadlineMisses
                    << ", \"meets_slo\": " << (ok ? "true" : "false");
        for (const auto &c : r.classes) {
            ladder_json << ", \"" << serve::sloClassName(c.slo)
                        << "_p99_ms\": " << jsonNumber(c.p99LatencyMs);
        }
        ladder_json << "}";
    }
    report.details[_in.name + ".ladder"] = "[" + ladder_json.str() + "]";
    report.details[_in.name + ".samples"] =
        "{\"cold_s\": " + jsonArray(_times.coldSeconds) +
        ", \"ladder_s\": " + jsonArray(_times.ladderSeconds) +
        ", \"restart_s\": " + jsonArray(_times.restartSeconds) +
        "}";

    const std::string p = _in.name + ".";
    const double downgrades =
        static_cast<double>(_cold.downgradedCached + _cold.downgradedFresh);
    Metrics &e = report.endToEnd;
    e[p + "warmup_s"] = {median(_times.coldSeconds), "s"};
    // Per-rung medians: a burst of load from elsewhere slows a few rungs
    // of one pass, not the whole sum.
    double serve_s = 0.0;
    for (const std::vector<double> &walls : _times.rungSeconds)
        serve_s += median(walls);
    e[p + "serve_s"] = {serve_s, "s"};
    e[p + "restart_s"] = {median(_times.restartSeconds), "s"};
    e[p + "p50_ms"] = {_warmRef.p50LatencyMs, "ms"};
    e[p + "p99_ms"] = {_warmRef.p99LatencyMs, "ms"};
    e[p + "cold_p99_ms"] = {_cold.p99LatencyMs, "ms"};
    e[p + "max_rps_at_slo"] = {max_rps, "1/s"};
    e[p + "fail_frac"] = {sent > 0 ? failed / sent : 0.0, "ratio"};
    if (_in.classes.size() > 1) {
        e[p + "lat_p99_ms"] = {classP99(_warmRef, SloClass::Latency), "ms"};
        e[p + "batch_p99_ms"] = {classP99(_warmRef, SloClass::Batch), "ms"};
    }

    Digest &d = report.digest;
    d[p + "warm.p50_ms"] = _warmRef.p50LatencyMs;
    d[p + "warm.p99_ms"] = _warmRef.p99LatencyMs;
    for (const auto &c : _warmRef.classes) {
        d[p + "warm." + serve::sloClassName(c.slo) + ".p99_ms"] =
            c.p99LatencyMs;
    }
    d[p + "warm.preemptions"] = static_cast<double>(_warmRef.preemptions);
    d[p + "warm.peak_queue"] = static_cast<double>(_warmRef.peakQueueDepth);
    d[p + "cold.p99_ms"] = _cold.p99LatencyMs;
    d[p + "cold.downgrades"] = downgrades;
    d[p + "cold.cache_hits"] = static_cast<double>(_cold.cacheHits);
    d[p + "cold.cache_misses"] = static_cast<double>(_cold.cacheMisses);
    d[p + "store.writes"] = static_cast<double>(_storeStats.writes);
    d[p + "max_rps_at_slo"] = max_rps;

    if (!_ctx.layers)
        return;

    // Direct store reads and plan_io calls for every key a pass could
    // have written; the keys that load are exactly the ones written.
    double load_s = 0.0, encode_s = 0.0, decode_s = 0.0, store_bytes = 0.0;
    std::uint64_t loaded = 0;
    serve::PlanStoreStats direct{};
    {
        auto sp = tr.span("bench.store_reads");
        serve::PlanStore store(_options.storeDir);
        std::vector<sim::MeshView> shapes;
        for (const sim::MeshView &v : _in.views.empty()
                                          ? std::vector<sim::MeshView>{{}}
                                          : _in.views) {
            const sim::MeshView r = v.resolved(system.meshX, system.meshY);
            const bool dup = std::any_of(
                shapes.begin(), shapes.end(), [&r](const sim::MeshView &s) {
                    return s.width == r.width && s.height == r.height &&
                           s.hbmShare == r.hbmShare;
                });
            if (!dup)
                shapes.push_back(r);
        }
        for (const ClassSpec &cls : _in.classes) {
            for (const std::string &net : cls.mix) {
                graph::Graph g;
                {
                    auto s = tr.span("models.buildByName");
                    g = models::buildByName(net);
                }
                core::OrchestratorOptions opts = _options.orchestrator;
                opts.batch = cls.batch;
                for (const sim::MeshView &view : shapes) {
                    for (const std::string *strategy :
                         {&_options.strategy, &_options.fallbackStrategy}) {
                        const serve::PlanKey key = serve::makePlanKey(
                            *strategy, g, system, opts, view);
                        std::optional<core::PlanResult> plan;
                        {
                            auto s = tr.span("serve.PlanStore.load");
                            plan = store.load(key);
                            load_s += s.seconds();
                        }
                        if (!plan)
                            continue;
                        ++loaded;
                        store_bytes += static_cast<double>(
                            fs::file_size(store.path(key)));
                        std::string bytes;
                        {
                            auto s = tr.span("core.encodePlanResult");
                            bytes = core::encodePlanResult(*plan);
                            encode_s += s.seconds();
                        }
                        std::optional<core::PlanResult> back;
                        {
                            auto s = tr.span("core.decodePlanResult");
                            back = core::decodePlanResult(bytes);
                            decode_s += s.seconds();
                        }
                        checks.expect(
                            back && back->report.bitIdentical(plan->report),
                            _in.name + ": stored plan does not round-trip");
                    }
                }
            }
        }
        direct = store.stats();
    }
    checks.expect(loaded > 0 && loaded <= _storeStats.writes &&
                      direct.corrupt == 0,
                  _in.name + ": store reads do not match its writes");

    std::vector<double> waits;
    for (const auto &o : _warmRef.outcomes) {
        if (o.admitted)
            waits.push_back(static_cast<double>(o.start - o.arrival) /
                            (freq * 1e6));
    }
    const double lookups =
        static_cast<double>(_cold.cacheHits + _cold.cacheMisses);
    Metrics &m = report.perLayer;
    m[p + "serve.loop_self_s"] = {_loopSelf, "s"};
    m[p + "serve.loop.us_per_req"] = {
        _loopRequests > 0 ? 1e6 * _loopSelf / _loopRequests : 0.0, "us"};
    m[p + "serve.queue_wait_p50_ms"] = {median(waits), "ms"};
    m[p + "serve.queue.peak"] = {
        static_cast<double>(_warmRef.peakQueueDepth), "count"};
    m[p + "serve.downgrades"] = {downgrades, "count"};
    m[p + "serve.preemptions"] = {static_cast<double>(_warmRef.preemptions),
                                  "count"};
    m[p + "serve.rejected"] = {rejected, "count"};
    m[p + "serve.cache.hit_ratio"] = {
        lookups > 0 ? static_cast<double>(_cold.cacheHits) / lookups : 0.0,
        "ratio"};
    m[p + "serve.cache.mb"] = {static_cast<double>(_coldCache.bytes) / kMiB,
                               "MiB"};
    m[p + "serve.store.writes"] = {static_cast<double>(_storeStats.writes),
                                   "count"};
    m[p + "serve.store.load_s"] = {load_s, "s"};
    m[p + "serve.store.mb"] = {store_bytes / kMiB, "MiB"};
    m[p + "serve.store.corrupt"] = {static_cast<double>(direct.corrupt),
                                    "count"};
    m[p + "serve.plan_io.encode_s"] = {encode_s, "s"};
    m[p + "serve.plan_io.decode_s"] = {decode_s, "s"};
}

std::string
describeJson(const Inputs &in)
{
    std::ostringstream os;
    os << "{\"cold_compile\": {\"nets\": [";
    for (std::size_t i = 0; i < in.compile.names.size(); ++i)
        os << (i ? ", " : "") << jsonString(in.compile.names[i]);
    os << "], \"strategy\": \"AD\", \"batch\": 1}";
    for (const ServeInputs *s : {&in.zoo, &in.colo}) {
        os << ", " << jsonString(s->name) << ": {\"ref_rate\": "
           << jsonNumber(s->refRate) << ", \"ladder\": [";
        for (std::size_t k = 0; k < s->ladder.size(); ++k)
            os << (k ? ", " : "") << jsonNumber(s->ladder[k]);
        os << "], \"views\": [";
        for (std::size_t k = 0; k < s->views.size(); ++k)
            os << (k ? ", " : "") << jsonString(s->views[k].describe());
        os << "], \"classes\": [";
        for (std::size_t k = 0; k < s->classes.size(); ++k) {
            const ClassSpec &c = s->classes[k];
            os << (k ? ", " : "") << "{\"slo\": "
               << jsonString(ad::serve::sloClassName(c.slo))
               << ", \"batch\": " << c.batch
               << ", \"deadline_ms\": " << jsonNumber(c.deadlineMs)
               << ", \"p99_limit_ms\": " << jsonNumber(c.p99LimitMs)
               << ", \"rate_share\": " << jsonNumber(c.rateShare)
               << ", \"cold_requests\": " << s->coldRequests
               << ", \"ref_requests\": " << s->refRequests
               << ", \"rung_requests\": " << s->rungRequests
               << ", \"mix\": [";
            for (std::size_t j = 0; j < c.mix.size(); ++j)
                os << (j ? ", " : "") << jsonString(c.mix[j]);
            os << "]}";
        }
        os << "]}";
    }
    os << "}";
    return os.str();
}

} // namespace perfbench
