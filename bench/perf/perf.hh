/**
 * @file
 * cachescope-perf: the campaign benchmark and its per-layer ladder.
 *
 * `run` measures four workload x LLC-policy campaigns end to end, the
 * way a user of the simulator waits for them: build the inputs, sweep
 * every cell serially through SuiteRunner, export the metric tree.
 * `layers` replays captured streams of the same campaigns through a
 * ladder of public entry points (stub memory, +L1, +L2, +LLC per
 * policy, +DRAM, +core) and reports each layer's self time. `compare`
 * applies the parent/change rule to two sets of `run` outputs.
 *
 * Only public simulator APIs are called, so the benchmark measures the
 * library exactly as its users see it.
 */

#ifndef CACHESCOPE_BENCH_PERF_PERF_HH
#define CACHESCOPE_BENCH_PERF_PERF_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "stats/metrics.hh"
#include "trace/workload.hh"

namespace cachescope::perf {

/** Which way a metric improves. */
enum class Better
{
    Lower,
    Higher,
};

/** One reported metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
    Better better = Better::Lower;
    /**
     * Share of the parent's median by which an end-to-end metric may
     * worsen before a change counts as a regression; per-layer metrics
     * carry no bound (negative).
     */
    double bound = -1.0;
};

/** Metrics of `run` (tracing off), each gated by its bound. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of `layers`, the traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/** The benchmark's workloads, in run order. */
const std::vector<std::string> &workloadNames();

/** Settings shared by `run` and `layers`. */
struct Options
{
    /** Input seed; 42 reproduces the shipped suites. */
    std::uint64_t seed = 42;
    /** Measuring time per workload (at least the minimum repetitions). */
    double seconds = 25.0;
    /** CACHESCOPE_QUICK=1: tiny inputs and windows for the smoke test. */
    bool quick = false;
    /** Where perf.json, spans.json and scratch trace files go. */
    std::string outDir = "perf-out";
};

/** Seconds on the steady clock since @p start. */
double secondsSince(std::chrono::steady_clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * A directory created under @p parent that is removed, with all it
 * holds, when the object is destroyed.
 */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent);
    ~TempDir();

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Forwards the first @p limit records to another sink, then asks the
 * producer to stop. Records pushed after that are dropped, so the
 * stream is exactly @p limit long when the producer has that many.
 */
class BoundedSink : public InstructionSink
{
  public:
    BoundedSink(InstructionSink &out, std::uint64_t limit)
        : out_(out), limit_(limit)
    {}

    void
    onInstruction(const TraceRecord &rec) override
    {
        if (count_ < limit_) {
            out_.onInstruction(rec);
            ++count_;
        }
    }

    bool
    wantsMore() const override
    {
        return count_ < limit_ && out_.wantsMore();
    }

    std::uint64_t count() const { return count_; }

  private:
    InstructionSink &out_;
    std::uint64_t limit_;
    std::uint64_t count_ = 0;
};

/**
 * Capture the first @p records of @p source into a trace file at
 * @p path. @return the records written; throws std::runtime_error on
 * an I/O failure.
 */
std::uint64_t captureTrace(Workload &source, const std::string &path,
                           std::uint64_t records);

/**
 * A workload's inputs, built from the seed: everything a user sets up
 * before the first cell can run.
 */
struct Setup
{
    /** The members the campaign sweeps. */
    std::vector<std::shared_ptr<Workload>> suite;
    /**
     * Per member, the workload that generates its stream: the GAP
     * kernel a trace was captured from, else the member itself.
     */
    std::vector<std::shared_ptr<Workload>> sources;
    /** Captured trace files of trace_replay (deleted with the setup). */
    std::unique_ptr<TempDir> traceDir;
};

/** The fixed shape of one workload's campaign. */
class Campaign
{
  public:
    /** fatal()s on an unknown workload name. */
    Campaign(std::string name, const Options &options);

    const std::string &name() const { return name_; }
    const std::vector<std::string> &policies() const { return policies_; }
    bool fastSweep() const { return name_ == "fast_sweep"; }

    /** Build the inputs; throws std::runtime_error on an I/O failure. */
    Setup setUp() const;

    /** Run every cell once, serially, the way a user's sweep does. */
    SweepReport sweep(const Setup &setup) const;

    /**
     * The configuration a cell of @p member under @p policy runs with:
     * the sweep windows (warmup raised by the workload's hint) and, on
     * fast_sweep, the fast-sweep preset applied.
     */
    SimConfig cellConfig(const Workload &member,
                         const std::string &policy) const;

    /** Instructions one cell of @p member streams (warmup + window). */
    std::uint64_t streamLength(const Workload &member) const;

    /** Members whose captured streams the ladder replays. */
    const std::vector<std::string> &ladderStreams() const
    {
        return ladderStreams_;
    }

  private:
    std::string name_;
    Options options_;
    std::vector<std::string> policies_;
    std::vector<std::string> ladderStreams_;
    InstCount warmup_ = 0;
    InstCount measure_ = 0;
    unsigned graphScale_ = 0;
    std::uint64_t traceRecords_ = 0;
};

/**
 * Set @p campaign up on each CPU this process may use (on at least
 * three, going round again on a smaller host), pinned to that CPU,
 * once or until the set-ups add up to a measurable time.
 * @param seconds receives the lowest of the per-CPU median set-up
 *        times: the set-up time on the least loaded core.
 * @return the last setup.
 */
Setup timedSetUp(const Campaign &campaign, double &seconds);

/** Verdict of the correctness gates on one sweep. */
struct SweepCheck
{
    /** Cells that did not run, or whose tree or window is wrong. */
    std::size_t failedCells = 0;
    /** One description per distinct violation. */
    std::vector<std::string> problems;
};

/**
 * Correctness gates on one sweep: every cell ran, every cell tree
 * passes the BENCH-JSON validation rules, and every measured window
 * holds the instructions it should.
 */
SweepCheck checkSweep(const Campaign &campaign, const Setup &setup,
                      const SweepReport &report);

/** Checksum64 of the sweep tree with wall-clock values stripped. */
std::uint64_t sweepDigest(const SweepReport &report);

/** What one workload measured and checked in one invocation. */
struct WorkloadReport
{
    /**
     * Metric gauges by name, "output.*" gauges for modelled results,
     * "cell_llc_mpki.<cell>" gauges, and the "digest" counter.
     */
    MetricsRegistry metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Failed correctness gates; empty when the outputs are correct. */
    std::vector<std::string> problems;
};

/** Measure the end-to-end metrics of @p workload (tracing off). */
WorkloadReport runCampaign(const std::string &workload,
                           const Options &options);

/**
 * Measure the per-layer metrics of @p workload through the ladder,
 * writing its spans as a JSON array to @p spans_path.
 */
WorkloadReport runLayers(const std::string &workload,
                         const Options &options,
                         const std::string &spans_path);

/**
 * The `compare` subcommand: each directory holds one `run`'s
 * perf.json. @return 1 when any metric regressed, else 0.
 */
int compareRuns(const std::vector<std::string> &parent_dirs,
                const std::vector<std::string> &change_dirs);

} // namespace cachescope::perf

#endif // CACHESCOPE_BENCH_PERF_PERF_HH
