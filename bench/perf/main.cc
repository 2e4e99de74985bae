/**
 * @file
 * cachescope-perf: the command line of the campaign benchmark.
 *
 *   cachescope-perf run     [--workload NAME]... [--seed N] [--seconds S]
 *                           [--out DIR]
 *   cachescope-perf layers  [--workload NAME]... [--seed N] [--seconds S]
 *                           [--out DIR]
 *   cachescope-perf compare PARENT_DIR... -- CHANGE_DIR...
 *
 * `run` (tracing off) and `layers` (the traced run) measure each
 * workload (default: all four) serially, each in a fresh child
 * process. They print every metric as "<workload> <metric> <value>
 * <unit>", write DIR/perf.json (DIR defaults to perf-out), `layers`
 * also DIR/spans.json, and end with one JSON line:
 * {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
 * Metric keys carry a "<workload>." prefix when several workloads ran.
 * CACHESCOPE_QUICK=1 shrinks every input for smoke testing.
 *
 * Exit codes: 0 ok; 1 bad usage, a workload that did not complete, or
 * a failed correctness gate; `compare` exits 1 when a metric regressed.
 */

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perf.hh"
#include "util/parse.hh"

using namespace cachescope;
using namespace cachescope::perf;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: cachescope-perf run|layers [--workload NAME]... "
                 "[--seed N] [--seconds S] [--out DIR]\n"
                 "       cachescope-perf compare PARENT_DIR... -- "
                 "CHANGE_DIR...\n"
                 "workloads: gap_sweep spec_sweep fast_sweep "
                 "trace_replay\n");
    return 1;
}

/** Shortest text that reads back as @p value. */
std::string
number(double value)
{
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    return std::string(buf, end);
}

/** What a workload's child process left behind. */
struct ChildOutcome
{
    bool ok = false;
    MetricsRegistry metrics;
    double peakRssMb = 0.0;
};

/**
 * Run @p body in a fresh child process, which writes the report it
 * returns to @p doc_path, and wait for it. The parent starts no thread
 * before forking, so the child may use any.
 */
ChildOutcome
inChild(const std::string &doc_path,
        const std::function<WorkloadReport()> &body)
{
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("fork");
        return {};
    }
    if (pid == 0) {
        int code = 1;
        try {
            WorkloadReport report = body();
            for (const std::string &problem : report.problems)
                std::fprintf(stderr, "  FAILED: %s\n", problem.c_str());
            MetricsDocument doc;
            doc.name = "workload";
            doc.metrics = std::move(report.metrics);
            doc.metrics.setCounter("cells_attempted", report.attempted);
            doc.metrics.setCounter("cells_failed", report.failed);
            doc.metrics.setCounter("problems", report.problems.size());
            code = writeMetricsJsonFile(doc, doc_path).ok() ? 0 : 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "  FAILED: %s\n", e.what());
        }
        std::fflush(nullptr);
        ::_exit(code);
    }

    int status = 0;
    struct rusage usage = {};
    while (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("wait4");
            return {};
        }
    }
    ChildOutcome out;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return out;
    auto doc = readMetricsJsonFile(doc_path);
    if (!doc.ok())
        return out;
    out.ok = true;
    out.metrics = doc.value().metrics;
    out.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return out;
}

/**
 * The sampling estimator's error on fast_sweep: each cell's sampled
 * LLC MPKI against the same cell simulated exactly by gap_sweep.
 */
void
addSamplingError(const MetricsRegistry &exact, MetricsRegistry &fast)
{
    const std::string prefix = "cell_llc_mpki.";
    double abs_sum = 0.0, signed_sum = 0.0;
    std::size_t cells = 0;
    for (const auto &[path, estimate] : fast.gauges()) {
        if (path.rfind(prefix, 0) != 0 || !exact.hasGauge(path))
            continue;
        const double truth = exact.gauge(path);
        if (truth <= 0.0)
            continue;
        abs_sum += std::fabs(estimate - truth) / truth;
        signed_sum += (estimate - truth) / truth;
        ++cells;
    }
    if (cells == 0)
        return;
    fast.setGauge("llc_mpki_err_pct", 100.0 * abs_sum / cells);
    fast.setGauge("llc_mpki_bias_pct", 100.0 * signed_sum / cells);
}

/** The paper's LRU averages over GAP, printed beside gap_sweep's. */
const std::map<std::string, double> kPaperReference = {
    {"output.lru_mpki_l1d", 53.0},
    {"output.lru_mpki_l2", 44.0},
    {"output.lru_mpki_llc", 42.0},
    {"output.lru_dram_service_ratio", 0.786},
};

int
measure(bool layers, const std::vector<std::string> &workloads,
        const Options &options)
{
    const std::vector<MetricDef> &table =
        layers ? perLayerMetrics() : endToEndMetrics();
    const std::string mode = layers ? "layers" : "run";

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, MetricsRegistry> results;
    std::string spans = "{";
    for (const std::string &workload : workloads) {
        std::fprintf(stderr, "%s %s (seed %llu)\n", mode.c_str(),
                     workload.c_str(),
                     static_cast<unsigned long long>(options.seed));
        const std::string doc_path =
            options.outDir + "/" + workload + "." + mode + ".json";
        const std::string spans_path =
            options.outDir + "/" + workload + ".spans.json";
        ChildOutcome child = inChild(doc_path, [&] {
            return layers ? runLayers(workload, options, spans_path)
                          : runCampaign(workload, options);
        });
        std::stringstream span_text;
        if (layers)
            span_text << std::ifstream(spans_path).rdbuf();
        std::error_code ec;
        std::filesystem::remove(doc_path, ec);
        std::filesystem::remove(spans_path, ec);
        if (!child.ok) {
            std::fprintf(stderr, "%s: did not complete\n", workload.c_str());
            correct = false;
            continue;
        }
        MetricsRegistry &m = results[workload] = std::move(child.metrics);
        if (!layers)
            m.setGauge("peak_rss_mb", child.peakRssMb);
        correct &= m.counter("problems") == 0;
        attempted += m.counter("cells_attempted");
        failed += m.counter("cells_failed");
        if (layers)
            spans += (spans.size() > 1 ? ",\n\"" : "\n\"") + workload +
                     "\": " + span_text.str();
    }
    if (results.count("gap_sweep") && results.count("fast_sweep"))
        addSamplingError(results["gap_sweep"], results["fast_sweep"]);

    MetricsDocument perf;
    perf.name = mode;
    std::string json_metrics;
    for (const std::string &workload : workloads) {
        const auto it = results.find(workload);
        if (it == results.end())
            continue;
        const MetricsRegistry &m = it->second;
        for (const MetricDef &def : table) {
            const double value = m.gauge(def.name);
            if (!m.hasGauge(def.name) || !std::isfinite(value)) {
                std::fprintf(stderr, "%s: metric %s missing or not finite\n",
                             workload.c_str(), def.name.c_str());
                correct = false;
                continue;
            }
            std::printf("%s %s %s %s\n", workload.c_str(), def.name.c_str(),
                        number(value).c_str(), def.unit.c_str());
            json_metrics += (json_metrics.empty() ? "" : ", ");
            json_metrics += "\"" +
                            (workloads.size() == 1 ? "" : workload + ".") +
                            def.name + "\": {\"value\": " + number(value) +
                            ", \"unit\": \"" + def.unit + "\"}";
        }
        for (const char *name : {"llc_mpki_err_pct", "llc_mpki_bias_pct"}) {
            if (m.hasGauge(name))
                std::printf("%s %s %s %%\n", workload.c_str(), name,
                            number(m.gauge(name)).c_str());
        }
        for (const auto &[path, value] : m.gauges()) {
            if (path.rfind("output.", 0) != 0)
                continue;
            std::printf("%s %s %.4f", workload.c_str(), path.c_str(), value);
            if (workload == "gap_sweep" && kPaperReference.count(path))
                std::printf(" (paper %g)", kPaperReference.at(path));
            std::printf("\n");
        }
        std::printf("%s digest 0x%016llx\n", workload.c_str(),
                    static_cast<unsigned long long>(m.counter("digest")));
        perf.metrics.merge(m, workload);
    }

    if (Status s = writeMetricsJsonFile(perf, options.outDir + "/perf.json");
        !s.ok()) {
        std::fprintf(stderr, "%s\n", s.toString().c_str());
        correct = false;
    }
    if (layers) {
        std::ofstream out(options.outDir + "/spans.json");
        out << spans << "\n}\n";
        correct &= static_cast<bool>(out.flush());
    }
    correct &= failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                json_metrics.c_str());
    return correct ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "compare") {
        const auto split = std::find(args.begin(), args.end(), "--");
        if (split == args.end())
            return usage();
        return compareRuns({args.begin(), split}, {split + 1, args.end()});
    }
    if (command != "run" && command != "layers")
        return usage();

    Options options;
    const char *quick = std::getenv("CACHESCOPE_QUICK");
    options.quick = quick != nullptr && quick[0] == '1';
    std::vector<std::string> workloads;
    for (std::size_t i = 0; i < args.size(); i += 2) {
        if (i + 1 >= args.size())
            return usage();
        const std::string &flag = args[i];
        const std::string &value = args[i + 1];
        if (flag == "--workload") {
            const auto &known = workloadNames();
            if (std::find(known.begin(), known.end(), value) == known.end()) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             value.c_str());
                return usage();
            }
            workloads.push_back(value);
        } else if (flag == "--seed") {
            auto seed = parseU64(value);
            if (!seed.ok())
                return usage();
            options.seed = seed.value();
        } else if (flag == "--seconds") {
            auto seconds = parseF64NonNegative(value);
            if (!seconds.ok())
                return usage();
            options.seconds = seconds.value();
        } else if (flag == "--out") {
            options.outDir = value;
        } else {
            return usage();
        }
    }
    if (workloads.empty())
        workloads = workloadNames();

    std::error_code ec;
    std::filesystem::create_directories(options.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n",
                     options.outDir.c_str(), ec.message().c_str());
        return 1;
    }
    return measure(command == "layers", workloads, options);
}
