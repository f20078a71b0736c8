/**
 * @file
 * perfbench: the repository's end-to-end benchmark. One process runs the
 * cold_compile, serve_zoo and serve_colo_tiny workloads (workloads.hh)
 * under one arrival shape, checks every output, and prints each metric
 * by name and unit, then one JSON object as the last line of stdout.
 *
 *   perfbench --workload poisson|bursty --seed N --seconds S
 *             --trace 0|1 --out DIR
 *
 * --trace 0 measures the end-to-end metrics untraced, on as many
 * threads as the process may use, repeating each timed phase and
 * reporting medians, host times at the reference speed (calibrate.hh).
 * --trace 1 runs every workload once untraced, then once traced on one
 * thread with the outside-in stage decomposition,
 * checks that every deterministic output of the two passes is equal,
 * and reports the per-layer metrics, self time per layer and the
 * tracing overhead; its spans are written to DIR. --seconds caps the
 * optional repetitions. Exit status is 0 only when every check passed.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "calibrate.hh"
#include "json_out.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Repetitions in an untraced run: the set-up, and short rounds of the
// timed phases (see runWorkloads). Six rounds give three cold_compile
// passes, nineteen zoo restarts, four co-location cold passes and seven
// co-location ladder passes, each counting the first pass; medians over
// them are what the end-to-end host metrics report.
constexpr int kSetupReps = 40;
constexpr int kRounds = 6;
constexpr int kRoundsPerCompilePass = 3;
constexpr int kZooRestartsPerRound = 3;
constexpr int kRoundsPerColoColdPass = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 55.0;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload poisson|bursty --seed N "
                 "--seconds S --trace 0|1 --out DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = value;
            else if (flag == "--seed")
                a.seed = std::stoull(value);
            else if (flag == "--seconds")
                a.seconds = std::stod(value);
            else if (flag == "--trace" && (value == "0" || value == "1"))
                a.trace = value == "1";
            else if (flag == "--out")
                a.out = value;
            else
                usage("bad argument " + flag + " " + value);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (a.workload != "poisson" && a.workload != "bursty")
        usage("--workload must be poisson or bursty");
    if (a.out.empty())
        usage("--out is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPUs this process may run on: the planner pool's thread budget. */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Sum of the host walls both passes of a traced run time alike. */
double
commonWall(const CompileRun &c, const std::vector<ServeTimes> &serves)
{
    double sum = 0.0;
    for (const double s : c.passSeconds)
        sum += s;
    for (const ServeTimes &t : serves) {
        for (const auto *v :
             {&t.coldSeconds, &t.ladderSeconds, &t.restartSeconds}) {
            for (const double s : *v)
                sum += s;
        }
    }
    return sum;
}

struct Pass
{
    Report report;
    CompileRun compile;
    std::vector<ServeTimes> serves;
    double plannerPeakRssMiB = 0.0;
    std::vector<double> calibration; ///< reference-job seconds
};

/**
 * Run the three workloads. After one pass of each, the timed
 * repetitions run in short rounds (part of a compile pass, zoo
 * restarts, a co-location ladder pass and every other round a
 * co-location cold pass), so that every metric samples the whole run:
 * the machine's speed drifts over tens of seconds, and a slow stretch
 * then slows a few repetitions of each metric, which the medians
 * discard, rather than all repetitions of one. Rounds stop early when
 * the next would overrun the --seconds budget, so a slow machine still
 * ends in time.
 */
Pass
runWorkloads(Context ctx, const Inputs &in, bool repeat, double budget,
             Clock::time_point start)
{
    Pass pass;
    compilePass(ctx, in.compile, pass.compile);
    // The planner's high-water mark: the process has done nothing else
    // yet but make its inputs.
    pass.plannerPeakRssMiB = peakRssMiB();
    if (repeat)
        calibrate(pass.calibration);

    ServeRun zoo(ctx, in.zoo, false);
    ServeRun colo(ctx, in.colo, repeat);
    zoo.prepare();
    if (repeat)
        calibrate(pass.calibration);
    colo.prepare();
    zoo.restart();
    colo.restart();
    if (repeat)
        calibrate(pass.calibration);
    const std::size_t nets = in.compile.names.size();
    const std::size_t part =
        (nets + kRoundsPerCompilePass - 1) / kRoundsPerCompilePass;
    double longest = 0.0;
    for (int round = 0; repeat && round < kRounds &&
                        secondsSince(start) + longest < budget;
         ++round) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t first =
            part * static_cast<std::size_t>(round % kRoundsPerCompilePass);
        compilePass(ctx, in.compile, pass.compile, first, first + part);
        for (int k = 0; k < kZooRestartsPerRound; ++k)
            zoo.restart();
        if (round % kRoundsPerColoColdPass == 0)
            colo.coldPass();
        colo.ladderPass();
        calibrate(pass.calibration);
        longest = std::max(longest, secondsSince(t0));
    }
    zoo.finish(pass.report);
    colo.finish(pass.report);
    reportColdCompile(ctx, in.compile, pass.compile, pass.report);
    pass.serves = {zoo.times(), colo.times()};
    return pass;
}

/**
 * Report every host-time metric (unit s) at the reference speed: scaled
 * by the reference job's time at that speed over its median time in
 * this run (@p job_s). The measured medians stay in the output and the
 * run's record as raw.<name>, and the job's median as calibration_ms.
 */
void
atReferenceSpeed(Metrics &metrics, double job_s)
{
    const double scale = kReferenceJobSeconds / job_s;
    Metrics raw;
    for (auto &[name, m] : metrics) {
        if (m.unit != "s")
            continue;
        raw["raw." + name] = m;
        m.value *= scale;
    }
    metrics.insert(raw.begin(), raw.end());
    metrics["calibration_ms"] = {1e3 * job_s, "ms"};
}

void
printMetrics(const Metrics &metrics)
{
    for (const auto &[name, m] : metrics) {
        std::ostringstream os;
        os.precision(6);
        os << name << " = " << m.value << " " << m.unit;
        std::cout << os.str() << "\n";
    }
}

std::string
metricsJson(const Metrics &metrics)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

int
run(const Args &args)
{
    const Clock::time_point start = Clock::now();
    const ArrivalShape shape = args.workload == "bursty"
                                   ? ArrivalShape::Bursty
                                   : ArrivalShape::Poisson;
    const int threads = usableCpus();
    ad::util::ThreadPool::setGlobalThreads(threads);

    const fs::path out(args.out);
    const fs::path work = out / ("work-" + std::to_string(getpid()));
    fs::remove_all(work);
    fs::create_directories(work);

    ad::sim::SystemConfig system; // the default 8x8 KC-P machine
    Checks checks;
    Tracer untraced(false);
    Tracer traced(true);

    // Host speed around the set-up; the rest is sampled between the
    // timed phases (runWorkloads).
    std::vector<double> calibration;
    if (!args.trace)
        calibrate(calibration);

    // Set-up: every input made from the seed. Timed several times; the
    // first copy is kept.
    std::vector<double> setup;
    Inputs in;
    const int setup_reps = args.trace ? 1 : kSetupReps;
    for (int k = 0; k < setup_reps; ++k) {
        Checks scratch;
        const CpuPin pin(static_cast<std::size_t>(k));
        const Clock::time_point t0 = Clock::now();
        Inputs made = makeInputs(args.seed, shape, system,
                                 k == 0 ? checks : scratch,
                                 args.trace ? traced : untraced);
        setup.push_back(secondsSince(t0));
        if (k == 0)
            in = std::move(made);
    }
    const double build_s = traced.total("models.buildByName");

    Context ctx;
    ctx.system = system;
    ctx.workDir = work.string();
    ctx.tracer = &untraced;
    ctx.checks = &checks;

    Metrics metrics;
    std::vector<std::string> lines;
    std::map<std::string, std::string> details;
    if (!args.trace) {
        Pass pass = runWorkloads(ctx, in, true, args.seconds, start);
        metrics = pass.report.endToEnd;
        metrics["setup_s"] = {median(setup), "s"};
        metrics["peak_rss_mb"] = {pass.plannerPeakRssMiB, "MiB"};
        metrics["process_peak_rss_mb"] = {peakRssMiB(), "MiB"};
        calibration.insert(calibration.end(), pass.calibration.begin(),
                           pass.calibration.end());
        atReferenceSpeed(metrics, median(calibration));
        lines = pass.report.lines;
        details = pass.report.details;
    } else {
        Pass plain = runWorkloads(ctx, in, false, args.seconds, start);
        ad::util::ThreadPool::setGlobalThreads(1);
        ctx.tracer = &traced;
        ctx.layers = true;
        Pass deep;
        {
            auto sp = traced.span("bench.traced_pass");
            deep = runWorkloads(ctx, in, false, args.seconds, start);
        }
        ad::util::ThreadPool::setGlobalThreads(threads);

        // Neither tracing nor the thread count may change the program.
        for (const auto &[key, value] : plain.report.digest) {
            const auto it = deep.report.digest.find(key);
            checks.expect(it != deep.report.digest.end() &&
                              it->second == value,
                          "traced 1-thread pass differs from the untraced " +
                              std::to_string(threads) + "-thread pass at " +
                              key);
        }
        metrics = deep.report.perLayer;
        metrics["models.build_s"] = {build_s, "s"};
        for (const auto &[layer, self] : traced.selfSeconds())
            metrics["self." + layer + "_s"] = {self, "s"};
        const double traced_wall = commonWall(deep.compile, deep.serves);
        const double untraced_wall = commonWall(plain.compile, plain.serves);
        metrics["trace.overhead_s"] = {traced_wall - untraced_wall, "s"};
        metrics["trace.untraced_s"] = {untraced_wall, "s"};
        metrics["trace.traced_s"] = {traced_wall, "s"};
        metrics["trace.spans"] = {
            static_cast<double>(traced.records().size()), "count"};
        lines = deep.report.lines;
        details = deep.report.details;
        const fs::path spans =
            out / ("spans-" + args.workload + "-" +
                   std::to_string(args.seed) + ".json");
        traced.writeJson(spans.string());
        std::cout << "spans written to " << spans.string() << "\n";
    }
    fs::remove_all(work);

    for (const std::string &line : lines)
        std::cout << line << "\n";
    printMetrics(metrics);
    for (const std::string &f : checks.failures())
        std::cout << "CHECK FAILED: " << f << "\n";

    // Full record of the run next to the spans.
    {
        const fs::path path =
            out / ("result-" + args.workload + "-" +
                   std::to_string(args.seed) + "-trace" +
                   (args.trace ? "1" : "0") + ".json");
        std::ofstream os(path);
        os << "{\"workload\": " << jsonString(args.workload)
           << ", \"seed\": " << args.seed << ", \"threads\": " << threads
           << ", \"inputs\": " << describeJson(in)
           << ", \"metrics\": " << metricsJson(metrics);
        for (const auto &[key, json] : details)
            os << ", " << jsonString(key) << ": " << json;
        os << "}\n";
    }

    const bool correct = checks.failed() == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << checks.attempted()
              << ", \"failed\": " << checks.failed()
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
