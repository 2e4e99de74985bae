/**
 * @file
 * The four campaign workloads, their correctness gates, and the
 * end-to-end measurement loop behind `run`.
 *
 * Each workload is one fixed grid of (member x LLC policy) cells, run
 * serially through SuiteRunner with a 0.5M-instruction warmup (raised
 * to the member's warmup hint) and a 2M-instruction measured window.
 * The GAP graphs are kron20: large enough that LLC misses go to DRAM
 * at the rate the paper reports for GAP, small enough that a set-up
 * and a whole campaign fit in one run.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include <sched.h>
#include <unistd.h>

#include "core/cascade_lake.hh"
#include "graph/gap_suite.hh"
#include "perf.hh"
#include "trace/trace_io.hh"
#include "trace/trace_workload.hh"
#include "util/checksum.hh"
#include "workloads/synthetic.hh"

namespace cachescope::perf {

namespace {

/** LRU, the paper's six policies, and the offline OPT bound. */
const std::vector<std::string> kPolicies = {
    "lru", "srrip", "drrip", "ship", "hawkeye", "glider", "mpppb", "belady",
};

/** The seed the shipped suites are built with. */
constexpr std::uint64_t kDefaultSeed = 42;

/**
 * LLC set-sampling rate of SuiteRunner's fast-sweep preset. The ladder
 * checks its cpu rung against the sweep's own LRU cell, so a preset
 * that drifts from this copy fails the counter gate.
 */
constexpr std::uint32_t kFastSampleSets = 16;

/**
 * On each CPU, set-ups are repeated until they add up to this long, so
 * that a set-up of microseconds is reported as the median of many.
 */
constexpr double kMinSetupSeconds = 0.02;

/**
 * CPUs a set-up is timed on at least. On a shared host, a CPU whose
 * core a co-tenant keeps busy can run a set-up 1.7x slower, and which
 * CPUs those are changes from minute to minute, so set-up time is
 * taken on each CPU and the fastest CPU's median reported.
 */
constexpr std::size_t kSetupVisits = 3;

MetricDef
layer(std::string name, std::string unit, Better better)
{
    return {std::move(name), std::move(unit), better, -1.0};
}

const Workload &
memberNamed(const Setup &setup, const std::string &name)
{
    for (const auto &member : setup.suite)
        if (member->name() == name)
            return *member;
    throw std::runtime_error("no campaign member named '" + name + "'");
}

/**
 * The BENCH-JSON validation rules (tools/check_bench_json), applied to
 * one cell's exported tree through the public metrics API.
 * @return the first violation, or an empty string.
 */
std::string
treeProblem(const MetricsRegistry &tree)
{
    if (tree.counters().empty())
        return "no counters";
    for (const auto &[path, value] : tree.gauges())
        if (!std::isfinite(value))
            return "gauge '" + path + "' is not finite";

    MetricsDocument doc;
    doc.name = "cell";
    doc.metrics = tree;
    auto parsed = metricsFromJson(metricsToJson(doc));
    if (!parsed.ok())
        return "tree does not parse back: " + parsed.status().message();
    if (!(parsed.value().metrics == tree))
        return "tree changes in a JSON round trip";

    const auto &counters = tree.counters();
    const auto count = [&counters](const std::string &path) {
        const auto it = counters.find(path);
        return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    if (counters.count("llc.sampled.sample_rate") != 0) {
        const std::uint64_t sampled = count("llc.sampled.sets_sampled");
        if (sampled == 0 || sampled > count("llc.sampled.sets_total"))
            return "sampled set count outside [1, sets_total]";
        if (count("llc.sampled.demand_misses") <
            count("llc.misses.load") + count("llc.misses.store"))
            return "scaled LLC demand misses below the raw count";
        const double rate = tree.gauge("llc.sampled.demand_miss_rate");
        if (rate < 0.0 || rate > 1.0)
            return "sampled LLC miss rate outside [0, 1]";
    }
    return "";
}

/**
 * Drop the wall-clock values from a sweep tree, by the suffix rules of
 * the golden metric-tree test; what is left is simulated state.
 */
MetricsRegistry
stripTiming(const MetricsRegistry &in)
{
    const auto ends_with = [](const std::string &s, const char *suffix) {
        const std::size_t n = std::char_traits<char>::length(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    MetricsRegistry out;
    for (const auto &[path, value] : in.counters())
        out.setCounter(path, value);
    for (const auto &[path, value] : in.gauges()) {
        if (ends_with(path, ".wall_ms") || ends_with(path, "wall_seconds") ||
            ends_with(path, ".throughput_mips"))
            continue;
        out.setGauge(path, value);
    }
    for (const auto &[path, snap] : in.histograms()) {
        if (path != "sweep.cell_wall_ms")
            out.setHistogram(path, snap);
    }
    return out;
}

/**
 * Instructions the simulator consumed over all cells (warmup plus
 * measured window, both passes of a Belady cell), as each cell's own
 * throughput gauges record them.
 */
double
simulatedInstructions(const SweepReport &report)
{
    double total = 0.0;
    for (const CellOutcome &cell : report.outcomes) {
        if (!cell.ok)
            continue;
        const MetricsRegistry &m = cell.result.extraMetrics;
        total += 1e6 * m.gauge("sim.throughput_mips") *
                 m.gauge("sim.wall_seconds");
    }
    return total;
}

/**
 * Modelled-machine results of one sweep: outputs to read, never gated,
 * since a model fix may move them.
 */
void
addOutputs(const Campaign &campaign, const SweepReport &report,
           MetricsRegistry &out)
{
    for (const std::string &policy : campaign.policies()) {
        if (policy != "lru")
            out.setGauge("output.speedup." + policy,
                         geomeanSpeedup(report.results, policy));
    }
    if (campaign.name() == "gap_sweep") {
        double l1d = 0, l2 = 0, llc = 0, dram = 0, cells = 0;
        for (const auto &[workload, by_policy] : report.results) {
            const auto lru = by_policy.find("lru");
            if (lru == by_policy.end())
                continue;
            l1d += lru->second.mpkiL1d();
            l2 += lru->second.mpkiL2();
            llc += lru->second.mpkiLlc();
            dram += lru->second.dramServiceRatio();
            ++cells;
        }
        if (cells > 0) {
            out.setGauge("output.lru_mpki_l1d", l1d / cells);
            out.setGauge("output.lru_mpki_l2", l2 / cells);
            out.setGauge("output.lru_mpki_llc", llc / cells);
            out.setGauge("output.lru_dram_service_ratio", dram / cells);
        }
    }
    // Per-cell LLC MPKI, exact on gap_sweep and estimated from the
    // sampled subset on fast_sweep: `run` pairs the two to measure the
    // sampling estimator's error.
    if (campaign.name() != "gap_sweep" && !campaign.fastSweep())
        return;
    for (const CellOutcome &cell : report.outcomes) {
        if (!cell.ok || cell.result.core.instructions == 0)
            continue;
        double mpki = cell.result.mpkiLlc();
        const auto &counters = cell.result.extraMetrics.counters();
        if (const auto it = counters.find("llc.sampled.demand_misses");
            it != counters.end()) {
            mpki = 1000.0 * static_cast<double>(it->second) /
                   static_cast<double>(cell.result.core.instructions);
        }
        out.setGauge("cell_llc_mpki." + cell.workload + "." + cell.policy,
                     mpki);
    }
}

void
addProblem(std::vector<std::string> &problems, const std::string &problem)
{
    if (std::find(problems.begin(), problems.end(), problem) ==
        problems.end())
        problems.push_back(problem);
}

} // anonymous namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"setup_s", "s", Better::Lower, 0.25},
        {"campaign_s", "s", Better::Lower, 0.25},
        {"sim_mips", "Minst/s", Better::Higher, 0.25},
        {"peak_rss_mb", "MiB", Better::Lower, 0.10},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = [] {
        std::vector<MetricDef> m = {
            layer("setup.build_s", "s", Better::Lower),
            layer("trace.capture_ns_per_inst", "ns/inst", Better::Lower),
            layer("gen.ns_per_inst", "ns/inst", Better::Lower),
            layer("trace.decode_ns_per_inst", "ns/inst", Better::Lower),
            layer("ladder.base_ns_per_inst", "ns/inst", Better::Lower),
            layer("cache.l1.ns_per_inst", "ns/inst", Better::Lower),
            layer("cache.l2.ns_per_inst", "ns/inst", Better::Lower),
        };
        for (const std::string &policy : kPolicies) {
            if (policy != "belady")
                m.push_back(layer("cache.llc." + policy + ".ns_per_inst",
                                  "ns/inst", Better::Lower));
        }
        m.insert(m.end(), {
            layer("dram.ns_per_inst", "ns/inst", Better::Lower),
            layer("cpu.ns_per_inst", "ns/inst", Better::Lower),
            layer("export.ms_per_cell", "ms", Better::Lower),
            layer("ladder.coverage", "ratio", Better::Higher),
            layer("cpu.ipc_geomean", "inst/cycle", Better::Higher),
            layer("l1d.mpki", "1/kinst", Better::Lower),
            layer("l2.mpki", "1/kinst", Better::Lower),
            layer("llc.mpki", "1/kinst", Better::Lower),
            layer("llc.demand_hit_rate", "ratio", Better::Higher),
            layer("dram.reads_pki", "1/kinst", Better::Lower),
            layer("dram.row_hit_rate", "ratio", Better::Higher),
            layer("dram.avg_latency_cycles", "cycles", Better::Lower),
            layer("llc.sampled_access_share", "ratio", Better::Lower),
            layer("sweep.attempts_total", "count", Better::Lower),
            layer("trace.records", "count", Better::Higher),
        });
        return m;
    }();
    return metrics;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "gap_sweep", "spec_sweep", "fast_sweep", "trace_replay",
    };
    return names;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

TempDir::TempDir(const std::string &parent)
{
    static unsigned next = 0;
    path_ = parent + "/tmp." + std::to_string(::getpid()) + "." +
            std::to_string(next++);
    std::error_code ec;
    std::filesystem::create_directories(path_, ec);
    if (ec)
        throw std::runtime_error("cannot create " + path_ + ": " +
                                 ec.message());
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::uint64_t
captureTrace(Workload &source, const std::string &path,
             std::uint64_t records)
{
    auto writer = TraceWriter::open(path);
    if (!writer.ok())
        throw std::runtime_error(writer.status().toString());
    BoundedSink sink(*writer.value(), records);
    source.run(sink);
    if (Status s = writer.value()->finish(); !s.ok())
        throw std::runtime_error(s.toString());
    return sink.count();
}

Campaign::Campaign(std::string name, const Options &options)
    : name_(std::move(name)), options_(options), policies_(kPolicies)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), name_) == names.end())
        fatal("unknown workload '%s'", name_.c_str());

    const bool quick = options.quick;
    warmup_ = quick ? 20'000 : 500'000;
    measure_ = quick ? 100'000 : 2'000'000;
    // Belady needs the full LLC stream, which set-sampling drops.
    if (fastSweep())
        std::erase(policies_, "belady");

    std::vector<std::string> kernels = {"bfs", "pr", "tc"};
    if (name_ == "spec_sweep") {
        ladderStreams_ = {"spec06.hot_cold", "spec06.stream_triad"};
        return;
    }
    if (name_ == "trace_replay") {
        // A 4x smaller graph than the GAP sweeps, relative to the same
        // 1.375 MB LLC; cells run each trace to its end.
        graphScale_ = quick ? 12 : 18;
        traceRecords_ = quick ? 150'000 : 4'000'000;
        measure_ = 0;
        kernels = {"bfs", "pr", "cc"};
    } else {
        graphScale_ = quick ? 14 : 20;
    }
    const std::string suffix = ".kron" + std::to_string(graphScale_) +
                               (name_ == "trace_replay" ? ".trace" : "");
    for (const std::string &kernel : kernels)
        ladderStreams_.push_back(kernel + suffix);
}

Setup
Campaign::setUp() const
{
    Setup setup;
    if (name_ == "spec_sweep") {
        // Each member keeps its own parameters; only its seed moves
        // with the benchmark seed, so seed 42 is the shipped suite.
        for (const auto &shipped : makeSpec06Suite()) {
            const auto &member =
                dynamic_cast<const SyntheticWorkload &>(*shipped);
            SynthParams params = member.params();
            params.seed += options_.seed - kDefaultSeed;
            const std::string stem =
                std::string("spec06.") + synthPatternName(member.pattern());
            const std::string variant = member.name().size() > stem.size()
                ? member.name().substr(stem.size() + 1)
                : "";
            setup.suite.push_back(std::make_shared<SyntheticWorkload>(
                "spec06", member.pattern(), params, variant));
        }
        setup.sources = setup.suite;
        return setup;
    }

    GapSuiteConfig config;
    config.scale = graphScale_;
    config.seed = options_.seed;
    config.includeUniform = false;
    if (name_ != "trace_replay") {
        setup.suite = makeGapSuite(config);
        setup.sources = setup.suite;
        return setup;
    }

    config.kernels = {GapKernel::Bfs, GapKernel::PageRank, GapKernel::Cc};
    setup.traceDir = std::make_unique<TempDir>(options_.outDir);
    for (const auto &kernel : makeGapSuite(config)) {
        const std::string path =
            setup.traceDir->path() + "/" + kernel->name() + ".trace";
        captureTrace(*kernel, path, traceRecords_);
        auto member = TraceFileWorkload::open(path, kernel->name() + ".trace");
        if (!member.ok())
            throw std::runtime_error(member.status().toString());
        setup.suite.push_back(member.take());
        setup.sources.push_back(kernel);
    }
    return setup;
}

SweepReport
Campaign::sweep(const Setup &setup) const
{
    SuiteRunner runner(cascadeLakeConfig("lru", warmup_, measure_),
                       /*jobs=*/1);
    runner.setVerbose(false);
    runner.setFastSweep(fastSweep());
    return runner.runChecked(setup.suite, policies_);
}

SimConfig
Campaign::cellConfig(const Workload &member, const std::string &policy) const
{
    SimConfig config = cascadeLakeConfig(
        policy, std::max(warmup_, member.warmupHint()), measure_);
    if (fastSweep()) {
        config.warmupMode = WarmupMode::Functional;
        config.hierarchy.llc.sampleSets = kFastSampleSets;
    }
    return config;
}

std::uint64_t
Campaign::streamLength(const Workload &member) const
{
    if (const auto *trace = dynamic_cast<const TraceFileWorkload *>(&member))
        return trace->numRecords();
    return std::max(warmup_, member.warmupHint()) + measure_;
}

Setup
timedSetUp(const Campaign &campaign, double &seconds)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed))
                cpus.push_back(cpu);
    }
    const std::size_t visits =
        std::max<std::size_t>(kSetupVisits, cpus.size());

    Setup setup;
    for (std::size_t visit = 0; visit < visits; ++visit) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[visit % cpus.size()], &one);
            ::sched_setaffinity(0, sizeof(one), &one);
        }
        std::vector<double> samples;
        double spent = 0.0;
        do {
            // Free the last inputs first, so that only one set lives
            // at a time and the peak RSS is one set-up's.
            setup = Setup();
            const auto start = std::chrono::steady_clock::now();
            setup = campaign.setUp();
            samples.push_back(secondsSince(start));
            spent += samples.back();
        } while (spent < kMinSetupSeconds);
        seconds = visit == 0 ? median(samples)
                             : std::min(seconds, median(samples));
    }
    if (!cpus.empty())
        ::sched_setaffinity(0, sizeof(allowed), &allowed);
    return setup;
}

SweepCheck
checkSweep(const Campaign &campaign, const Setup &setup,
           const SweepReport &report)
{
    SweepCheck check;
    std::uint64_t ok = 0;
    for (const CellOutcome &cell : report.outcomes) {
        const std::string id = cell.workload + "/" + cell.policy;
        if (!cell.ok) {
            ++check.failedCells;
            addProblem(check.problems, id + " failed: " + cell.error);
            continue;
        }
        ++ok;
        MetricsRegistry tree;
        cell.exportCellMetrics(tree);
        std::string problem = treeProblem(tree);
        const Workload &member = memberNamed(setup, cell.workload);
        const std::uint64_t window =
            campaign.streamLength(member) -
            campaign.cellConfig(member, cell.policy).warmupInstructions;
        if (problem.empty() && cell.result.core.instructions != window) {
            problem = "measured " +
                      std::to_string(cell.result.core.instructions) +
                      " instructions, window is " + std::to_string(window);
        }
        if (!problem.empty()) {
            ++check.failedCells;
            addProblem(check.problems, id + ": " + problem);
        }
    }
    if (report.metrics.counter("sweep.cells_total") !=
            report.outcomes.size() ||
        report.metrics.counter("sweep.cells_ok") != ok)
        addProblem(check.problems, "sweep.* cell accounting is off");
    return check;
}

std::uint64_t
sweepDigest(const SweepReport &report)
{
    MetricsDocument doc;
    doc.name = "sweep";
    doc.metrics = stripTiming(report.metrics);
    const std::string json = metricsToJson(doc);
    Checksum64 sum;
    sum.update(json.data(), json.size());
    return sum.digest();
}

WorkloadReport
runCampaign(const std::string &workload, const Options &options)
{
    const Campaign campaign(workload, options);
    const TempDir scratch(options.outDir);
    const unsigned min_reps = options.quick ? 2 : 1;

    WorkloadReport out;
    const auto start = std::chrono::steady_clock::now();
    double setup_s = 0.0;
    const Setup setup = timedSetUp(campaign, setup_s);
    std::fprintf(stderr, "  %s: set-up %.4gs\n", workload.c_str(), setup_s);

    std::vector<double> campaign_s, mips;
    std::uint64_t digest = 0;
    // Repeat whole campaigns over the last set-up while another one
    // fits in the measuring time.
    for (unsigned rep = 0;
         rep < min_reps ||
         secondsSince(start) + median(campaign_s) - setup_s <=
             options.seconds;
         ++rep) {
        auto t = std::chrono::steady_clock::now();
        const SweepReport report = campaign.sweep(setup);
        const double cells_s = secondsSince(t);

        // Export as the CLI's --metrics-json does: the whole tree.
        t = std::chrono::steady_clock::now();
        MetricsDocument doc;
        doc.name = "sweep:" + workload;
        doc.metrics = report.metrics;
        const Status written =
            writeMetricsJsonFile(doc, scratch.path() + "/sweep.json");
        const double export_s = secondsSince(t);
        if (!written.ok())
            addProblem(out.problems, "export failed: " + written.toString());

        const SweepCheck check = checkSweep(campaign, setup, report);
        out.attempted += report.outcomes.size();
        out.failed += check.failedCells;
        for (const std::string &problem : check.problems)
            addProblem(out.problems, problem);
        const std::uint64_t rep_digest = sweepDigest(report);
        if (rep > 0 && rep_digest != digest)
            addProblem(out.problems,
                       "the metric tree differs between repetitions");
        digest = rep_digest;

        campaign_s.push_back(setup_s + cells_s + export_s);
        mips.push_back(simulatedInstructions(report) / cells_s / 1e6);
        addOutputs(campaign, report, out.metrics);
        std::fprintf(stderr,
                     "  %s rep %u: cells %.3fs export %.3fs (%zu cells)\n",
                     workload.c_str(), rep + 1, cells_s, export_s,
                     report.outcomes.size());
    }
    out.metrics.setGauge("setup_s", setup_s);
    out.metrics.setGauge("campaign_s", median(campaign_s));
    out.metrics.setGauge("sim_mips", median(mips));
    out.metrics.setCounter("digest", digest);
    return out;
}

} // namespace cachescope::perf
