/**
 * @file
 * The traced run behind `layers`: per-layer self time from a ladder of
 * public entry points over captured streams, and the count metrics of
 * one campaign.
 *
 * Each ladder stream is one campaign cell's window, captured once into
 * memory. Every rung replays it with CpuCore's access sequence (one
 * L1I fetch per new 64-byte fetch block, then the load or store) and
 * adds one layer to the rung below:
 *
 *   base      the replay loop and fetch filter over a stub MemoryLevel
 *   l1        L1I and L1D Cache over the stub
 *   l2        + the L2
 *   llc.<p>   + the LLC under policy p
 *   dram      a whole CacheHierarchy (LRU LLC over DRAM)
 *   cpu       Simulator::onInstruction, which adds the core model
 *
 * A layer's self time is its rung's time minus the rung below. Beside
 * the ladder, `gen` runs the workload into a sink that only counts
 * (the producing thread's CPU time), `capture` writes the stream to a
 * trace file, `decode` replays that file into a NullSink, and `cell`
 * times runOne() on the same LRU cell, the reference gen + cpu has to
 * add up to. Every rung resets its statistics at the cell's warmup
 * boundary, so its cache counters must equal the cpu rung's exactly,
 * and the cpu rung's must equal the sweep's own LRU cell's.
 */

#include <array>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/simulator.hh"
#include "perf.hh"
#include "stats/summary.hh"
#include "trace/trace_io.hh"

namespace cachescope::perf {

namespace {

/** The bottom of the cache-only rungs; counts what reaches it. */
class StubLevel final : public MemoryLevel
{
  public:
    Cycle
    access(Addr, Pc, AccessType, Cycle now) override
    {
        ++accesses;
        return now + 1;
    }

    const std::string &levelName() const override { return name_; }

    std::uint64_t accesses = 0;

  private:
    std::string name_ = "stub";
};

/**
 * Counts records and asks the producer to stop after @p limit: the
 * cheapest sink there is, so that `gen` times the producer alone.
 */
class StopSink final : public InstructionSink
{
  public:
    explicit StopSink(std::uint64_t limit) : limit_(limit) {}

    void onInstruction(const TraceRecord &) override { ++count_; }

    bool wantsMore() const override { return count_ < limit_; }

  private:
    std::uint64_t limit_;
    std::uint64_t count_ = 0;
};

/** Collects a stream into memory. */
class VectorSink : public InstructionSink
{
  public:
    void
    onInstruction(const TraceRecord &rec) override
    {
        records.push_back(rec);
    }

    std::vector<TraceRecord> records;
};

/**
 * Range (gen + cpu rung) / cell must fall in. Timing one phase after
 * another on a shared host moves the ratio by up to about 0.1; a layer
 * the ladder misses or counts twice moves it further.
 */
constexpr double kMinCoverage = 0.8;
constexpr double kMaxCoverage = 1.25;

/** Cache counters of a rung: L1I, L1D, L2, LLC; empty where absent. */
using Levels = std::array<std::optional<CacheStats>, 4>;
constexpr const char *kLevelNames[] = {"L1I", "L1D", "L2", "LLC"};
constexpr std::size_t kLlc = 3;

Levels
levelsOf(const CacheHierarchy &hier)
{
    return {hier.l1i().stats(), hier.l1d().stats(), hier.l2().stats(),
            hier.llc().stats()};
}

Levels
levelsOf(const SimResult &result)
{
    return {result.l1i, result.l1d, result.l2, result.llc};
}

/** CPU time of the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec t{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
}

/**
 * Replay @p stream with CpuCore's access sequence: @p fetch once per
 * new fetch block, then @p data for a load or store. @p reset runs at
 * the warmup boundary, before record @p warmup.
 */
template <typename Fetch, typename Data, typename Reset>
void
drive(const std::vector<TraceRecord> &stream, std::uint64_t warmup,
      Fetch fetch, Data data, Reset reset)
{
    Pc last_block = kInvalidAddr;
    for (std::uint64_t i = 0; i < stream.size(); ++i) {
        if (i == warmup)
            reset();
        const TraceRecord &rec = stream[i];
        const Cycle now = i;
        if ((rec.pc >> 6) != last_block) {
            fetch(rec.pc, now);
            last_block = rec.pc >> 6;
        }
        if (rec.kind == InstKind::Load)
            data(rec.addr, rec.pc, AccessType::Load, now);
        else if (rec.kind == InstKind::Store)
            data(rec.addr, rec.pc, AccessType::Store, now);
    }
}

/** Run one ladder rung over @p stream. @return its cache counters. */
Levels
runRung(const std::string &rung, const std::vector<TraceRecord> &stream,
        const SimConfig &config)
{
    const std::uint64_t warmup = config.warmupInstructions;
    if (rung == "cpu") {
        Simulator sim(config);
        for (const TraceRecord &rec : stream)
            sim.onInstruction(rec);
        return levelsOf(sim.hierarchy());
    }
    if (rung == "dram") {
        // The functional warmup a fast-sweep cell runs: DRAM skipped
        // until the boundary.
        CacheHierarchy hier(config.hierarchy);
        hier.setFunctionalMode(config.warmupMode == WarmupMode::Functional);
        drive(stream, warmup,
              [&](Pc pc, Cycle now) { hier.fetch(pc, now); },
              [&](Addr addr, Pc pc, AccessType type, Cycle now) {
                  if (type == AccessType::Load)
                      hier.load(addr, pc, now);
                  else
                      hier.store(addr, pc, now);
              },
              [&] {
                  hier.setFunctionalMode(false);
                  hier.resetStats();
              });
        return levelsOf(hier);
    }

    StubLevel stub;
    if (rung == "base") {
        MemoryLevel &level = stub;
        drive(stream, warmup,
              [&](Pc pc, Cycle now) {
                  level.access(pc, pc, AccessType::Load, now);
              },
              [&](Addr addr, Pc pc, AccessType type, Cycle now) {
                  level.access(addr, pc, type, now);
              },
              [] {});
        if (stub.accesses == 0 && !stream.empty())
            throw std::runtime_error("base rung saw no access");
        return {};
    }

    // Cache-only rungs: l1, l2 and llc.<policy>, over the stub.
    std::unique_ptr<Cache> llc, l2;
    MemoryLevel *below = &stub;
    if (rung.rfind("llc.", 0) == 0) {
        CacheConfig llc_config = config.hierarchy.llc;
        llc_config.replacement = rung.substr(4);
        llc = std::make_unique<Cache>(llc_config, below);
        below = llc.get();
    }
    if (rung != "l1") {
        l2 = std::make_unique<Cache>(config.hierarchy.l2, below);
        below = l2.get();
    }
    Cache l1i(config.hierarchy.l1i, below);
    Cache l1d(config.hierarchy.l1d, below);
    drive(stream, warmup,
          [&](Pc pc, Cycle now) {
              l1i.access(pc, pc, AccessType::Load, now);
          },
          [&](Addr addr, Pc pc, AccessType type, Cycle now) {
              l1d.access(addr, pc, type, now);
          },
          [&] {
              l1i.resetStats();
              l1d.resetStats();
              if (l2)
                  l2->resetStats();
              if (llc)
                  llc->resetStats();
          });
    Levels levels;
    levels[0] = l1i.stats();
    levels[1] = l1d.stats();
    if (l2)
        levels[2] = l2->stats();
    if (llc)
        levels[kLlc] = llc->stats();
    return levels;
}

/**
 * The counter-equality gate: every level @p what has must count the
 * hits and misses the cpu rung counts, the LLC only when @p with_llc
 * (it runs the cpu rung's LRU policy). @return the first mismatch, or
 * empty.
 */
std::string
countersProblem(const std::string &what, const Levels &levels,
                const Levels &cpu, bool with_llc)
{
    for (std::size_t l = 0; l < levels.size(); ++l) {
        if (!levels[l] || !cpu[l] || (l == kLlc && !with_llc))
            continue;
        for (std::size_t t = 0; t < CacheStats::kNumTypes; ++t) {
            if (levels[l]->hits[t] != cpu[l]->hits[t] ||
                levels[l]->misses[t] != cpu[l]->misses[t])
                return what + " " + kLevelNames[l] +
                       " counters differ from the cpu rung's";
        }
    }
    return "";
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Count metrics of one campaign, from its cells' results. */
void
addCountMetrics(const SweepReport &report, MetricsRegistry &out)
{
    std::vector<double> ipcs;
    double inst = 0, l1d = 0, l2 = 0, llc_misses = 0, llc_hits = 0,
           llc_demand = 0, llc_all = 0, skipped = 0, dram_reads = 0,
           row_hits = 0, dram_accesses = 0, latency = 0;
    for (const CellOutcome &cell : report.outcomes) {
        if (!cell.ok)
            continue;
        const SimResult &r = cell.result;
        ipcs.push_back(r.ipc());
        inst += static_cast<double>(r.core.instructions);
        l1d += static_cast<double>(r.l1d.demandMisses());
        l2 += static_cast<double>(r.l2.demandMisses());
        llc_misses += static_cast<double>(r.llc.demandMisses());
        llc_hits += static_cast<double>(r.llc.demandHits());
        llc_demand += static_cast<double>(r.llc.demandAccesses());
        for (std::size_t t = 0; t < CacheStats::kNumTypes; ++t)
            llc_all += static_cast<double>(r.llc.hits[t] + r.llc.misses[t]);
        skipped += static_cast<double>(
            r.extraMetrics.counter("llc.sampled.skipped_accesses"));
        dram_reads += static_cast<double>(r.dram.reads);
        row_hits += static_cast<double>(r.dram.rowHits);
        dram_accesses += static_cast<double>(r.dram.accesses());
        latency += static_cast<double>(r.dram.totalLatency);
    }
    // Counts of simulated work: on fast_sweep the LLC and DRAM figures
    // cover the sampled sets only.
    out.setGauge("cpu.ipc_geomean", ipcs.empty() ? 0.0 : geomean(ipcs));
    out.setGauge("l1d.mpki", 1000.0 * ratio(l1d, inst));
    out.setGauge("l2.mpki", 1000.0 * ratio(l2, inst));
    out.setGauge("llc.mpki", 1000.0 * ratio(llc_misses, inst));
    out.setGauge("llc.demand_hit_rate", ratio(llc_hits, llc_demand));
    out.setGauge("dram.reads_pki", 1000.0 * ratio(dram_reads, inst));
    out.setGauge("dram.row_hit_rate", ratio(row_hits, dram_reads));
    out.setGauge("dram.avg_latency_cycles", ratio(latency, dram_accesses));
    out.setGauge("llc.sampled_access_share",
                 ratio(llc_all, llc_all + skipped));
    out.setGauge("sweep.attempts_total", static_cast<double>(
                     report.metrics.counter("sweep.attempts_total")));
}

/**
 * Milliseconds per cell to export a sweep's cell trees and serialize
 * them, the median of three exports.
 */
double
exportMsPerCell(const SweepReport &report)
{
    std::vector<double> samples;
    std::size_t bytes = 0;
    for (int i = 0; i < 3; ++i) {
        const auto start = std::chrono::steady_clock::now();
        MetricsDocument doc;
        doc.name = "export";
        for (const CellOutcome &cell : report.outcomes) {
            if (cell.ok)
                cell.exportCellMetrics(doc.metrics, "cell." + cell.workload +
                                                        "." + cell.policy);
        }
        bytes += metricsToJson(doc).size();
        samples.push_back(secondsSince(start));
    }
    if (bytes == 0 || report.outcomes.empty())
        return 0.0;
    return 1000.0 * median(samples) /
           static_cast<double>(report.outcomes.size());
}

/** One timed interval, written to spans.json. */
struct Span
{
    std::string name;
    std::string parent;
    unsigned pass = 0;
    double startUs = 0;
    double endUs = 0;
};

/** One captured cell window and its per-phase timings. */
struct Stream
{
    std::string name;
    Workload *member = nullptr;
    Workload *source = nullptr;
    SimConfig config;
    std::vector<TraceRecord> records;
    std::map<std::string, std::vector<double>> seconds;
};

} // anonymous namespace

WorkloadReport
runLayers(const std::string &workload, const Options &options,
          const std::string &spans_path)
{
    const auto start = std::chrono::steady_clock::now();
    const Campaign campaign(workload, options);
    const TempDir scratch(options.outDir);
    WorkloadReport out;
    std::vector<Span> spans;
    const auto micros = [&start] { return 1e6 * secondsSince(start); };
    const auto timed = [&](const std::string &name, const std::string &parent,
                           unsigned pass, auto &&body) {
        const double begin = micros();
        body();
        const double end = micros();
        spans.push_back({name, parent, pass, begin, end});
        return (end - begin) / 1e6;
    };

    double setup_s = 0.0;
    Setup setup;
    timed("setup", workload, 0,
          [&] { setup = timedSetUp(campaign, setup_s); });
    out.metrics.setGauge("setup.build_s", setup_s);

    // One campaign, for its count metrics, its export cost and its
    // correctness gates.
    SweepReport report;
    timed("sweep", workload, 0, [&] { report = campaign.sweep(setup); });
    const SweepCheck check = checkSweep(campaign, setup, report);
    out.attempted = report.outcomes.size();
    out.failed = check.failedCells;
    out.problems = check.problems;
    out.metrics.setCounter("digest", sweepDigest(report));
    addCountMetrics(report, out.metrics);
    out.metrics.setGauge("export.ms_per_cell", exportMsPerCell(report));

    std::vector<std::string> rungs = {"base", "l1", "l2"};
    for (const std::string &policy : campaign.policies()) {
        if (policy != "belady")
            rungs.push_back("llc." + policy);
    }
    rungs.push_back("dram");
    rungs.push_back("cpu");

    std::vector<Stream> streams;
    std::uint64_t total_records = 0;
    for (const std::string &name : campaign.ladderStreams()) {
        Stream s;
        s.name = name;
        for (std::size_t i = 0; i < setup.suite.size(); ++i) {
            if (setup.suite[i]->name() == name) {
                s.member = setup.suite[i].get();
                s.source = setup.sources[i].get();
            }
        }
        if (s.member == nullptr)
            throw std::runtime_error("no ladder stream named " + name);
        s.config = campaign.cellConfig(*s.member, "lru");
        const std::uint64_t length = campaign.streamLength(*s.member);
        VectorSink sink;
        sink.records.reserve(length);
        BoundedSink bounded(sink, length);
        s.member->run(bounded);
        s.records = std::move(sink.records);
        total_records += s.records.size();
        streams.push_back(std::move(s));
    }

    const unsigned min_passes = options.quick ? 2 : 3;
    std::vector<double> pass_seconds;
    for (unsigned pass = 1;
         pass <= min_passes ||
         secondsSince(start) + median(pass_seconds) <= options.seconds;
         ++pass) {
        const auto pass_start = std::chrono::steady_clock::now();
        for (Stream &s : streams) {
            const std::string parent = workload + "/" + s.name;
            const std::uint64_t length = s.records.size();
            const auto phase = [&](const std::string &name, auto &&body) {
                s.seconds[name].push_back(
                    timed(s.name + "/" + name, parent, pass, body));
            };
            // The producing thread's CPU time: on trace_replay the
            // reader decodes on its read-ahead thread, which a cell
            // overlaps with simulation, so only what the consuming
            // thread spends is part of a cell's time.
            double gen_cpu = 0.0;
            timed(s.name + "/gen", parent, pass, [&] {
                const double before = threadCpuSeconds();
                StopSink sink(length);
                s.member->run(sink);
                gen_cpu = threadCpuSeconds() - before;
            });
            s.seconds["gen"].push_back(gen_cpu);
            const std::string path = scratch.path() + "/" + s.name + ".trace";
            phase("capture",
                  [&] { captureTrace(*s.source, path, length); });
            phase("decode", [&] {
                auto reader = TraceReader::open(path);
                NullSink sink;
                if (!reader.ok() || !reader.value()->replayInto(sink).ok())
                    throw std::runtime_error("cannot decode " + path);
            });

            std::map<std::string, Levels> levels;
            for (const std::string &rung : rungs) {
                phase(rung, [&] {
                    levels[rung] = runRung(rung, s.records, s.config);
                });
            }
            if (pass == 1) {
                std::vector<std::string> problems;
                for (const std::string &rung : rungs) {
                    problems.push_back(countersProblem(
                        "rung " + rung, levels[rung], levels["cpu"],
                        rung == "dram" || rung == "llc.lru"));
                }
                // The cpu rung replays the cell's stream under the
                // cell's configuration, so it must count what the
                // sweep's own LRU cell counted; a configuration that
                // drifts from SuiteRunner's fails here.
                const auto cell = report.results.find(s.name);
                if (cell == report.results.end() ||
                    cell->second.count("lru") == 0) {
                    problems.push_back("the sweep has no LRU cell");
                } else {
                    problems.push_back(countersProblem(
                        "the sweep's LRU cell",
                        levelsOf(cell->second.at("lru")), levels["cpu"],
                        true));
                }
                for (const std::string &problem : problems) {
                    if (!problem.empty())
                        out.problems.push_back(s.name + ": " + problem);
                }
            }
            phase("cell", [&] { runOne(*s.member, s.config); });
        }
        pass_seconds.push_back(secondsSince(pass_start));
    }
    std::fprintf(stderr, "  %s ladder: %zu passes, median %.3fs\n",
                 workload.c_str(), pass_seconds.size(), median(pass_seconds));

    // Each statistic is taken within one pass, over all streams, and
    // then as the median over passes: a rung and the rung below it ran
    // in the same pass, so their difference is not skewed by the host
    // speeding up or slowing down between passes.
    const auto in_pass = [&streams](const std::string &phase,
                                    std::size_t pass) {
        double sum = 0.0;
        for (const Stream &s : streams)
            sum += s.seconds.at(phase)[pass];
        return sum;
    };
    const auto over_passes = [&](auto &&statistic) {
        std::vector<double> values;
        for (std::size_t pass = 0; pass < pass_seconds.size(); ++pass)
            values.push_back(statistic(pass));
        return median(values);
    };
    const double n = static_cast<double>(total_records);
    const auto self_ns = [&](const std::string &rung,
                             const std::string &below) {
        return 1e9 / n * over_passes([&](std::size_t pass) {
                   return in_pass(rung, pass) -
                          (below.empty() ? 0.0 : in_pass(below, pass));
               });
    };
    out.metrics.setGauge("gen.ns_per_inst", self_ns("gen", ""));
    out.metrics.setGauge("trace.capture_ns_per_inst", self_ns("capture", ""));
    out.metrics.setGauge("trace.decode_ns_per_inst", self_ns("decode", ""));
    out.metrics.setGauge("ladder.base_ns_per_inst", self_ns("base", ""));
    out.metrics.setGauge("cache.l1.ns_per_inst", self_ns("l1", "base"));
    out.metrics.setGauge("cache.l2.ns_per_inst", self_ns("l2", "l1"));
    for (const std::string &rung : rungs) {
        if (rung.rfind("llc.", 0) == 0)
            out.metrics.setGauge("cache." + rung + ".ns_per_inst",
                                 self_ns(rung, "l2"));
    }
    out.metrics.setGauge("dram.ns_per_inst", self_ns("dram", "llc.lru"));
    out.metrics.setGauge("cpu.ns_per_inst", self_ns("cpu", "dram"));
    const double coverage = over_passes([&](std::size_t p) {
        return ratio(in_pass("gen", p) + in_pass("cpu", p),
                     in_pass("cell", p));
    });
    out.metrics.setGauge("ladder.coverage", coverage);
    out.metrics.setGauge("trace.records", n);
    // A ladder that misses or double-counts part of a cell cannot say
    // where the cell's time goes. Quick streams are too short to time.
    if (!options.quick &&
        (coverage < kMinCoverage || coverage > kMaxCoverage)) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "ladder.coverage %.3f outside [%.2f, %.2f]", coverage,
                      kMinCoverage, kMaxCoverage);
        out.problems.push_back(buf);
    }

    std::ofstream file(spans_path);
    file << "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "\"pass\": %u, \"start_us\": %.3f, \"end_us\": %.3f}",
                      span.pass, span.startUs, span.endUs);
        file << (i ? ",\n " : "\n ") << "{\"name\": \"" << span.name
             << "\", \"parent\": \"" << span.parent << "\", " << buf;
    }
    file << "\n]\n";
    if (!file.flush())
        out.problems.push_back("cannot write " + spans_path);
    return out;
}

} // namespace cachescope::perf
