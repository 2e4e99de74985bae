/**
 * @file
 * `compare`: the parent/change rule for a claimed gain, applied to two
 * sets of `run` outputs on one host.
 *
 * For each workload and end-to-end metric it pairs the i-th parent run
 * with the i-th change run (so runs should alternate which side goes
 * first) and reports each side's median and quartiles, the share of
 * pairs the change wins (ties count for neither side), and a verdict:
 *
 *   improved       the change wins at least 9 in 10 pairs and the
 *                  medians differ by more than the parent's IQR
 *   regression     the change's median is worse by more than the
 *                  bound, and either both IQRs are within the bound or
 *                  every change run is worse than every parent run
 *   unresolved     a side's IQR exceeds the metric's bound, and not
 *                  every change run beats every parent run
 *   no regression  otherwise
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perf.hh"

namespace cachescope::perf {

namespace {

/** Quartiles as Python's statistics.quantiles(values, n=4) gives them. */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
};

Quartiles
quartiles(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 2)
        return n == 0 ? Quartiles{} : Quartiles{values[0], values[0],
                                                 values[0]};
    // The "exclusive" method: positions i * (n + 1) / 4.
    double q[3];
    for (std::size_t i = 1; i <= 3; ++i) {
        const std::size_t m = i * (n + 1);
        const std::size_t j = std::clamp<std::size_t>(m / 4, 1, n - 1);
        const double delta = static_cast<double>(m) - 4.0 * j;
        q[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    return {q[0], q[1], q[2]};
}

/** @return each directory's perf.json metrics, in order. */
std::vector<MetricsRegistry>
loadRuns(const std::vector<std::string> &dirs, bool &ok)
{
    std::vector<MetricsRegistry> runs;
    for (const std::string &dir : dirs) {
        auto doc = readMetricsJsonFile(dir + "/perf.json");
        if (!doc.ok()) {
            std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                         doc.status().message().c_str());
            ok = false;
            continue;
        }
        runs.push_back(doc.value().metrics);
    }
    return runs;
}

} // anonymous namespace

int
compareRuns(const std::vector<std::string> &parent_dirs,
            const std::vector<std::string> &change_dirs)
{
    bool ok = true;
    const auto parents = loadRuns(parent_dirs, ok);
    const auto changes = loadRuns(change_dirs, ok);
    if (!ok || parents.empty() || changes.empty())
        return 1;

    bool regressed = false;
    std::printf("%-13s %-12s %-34s %-34s %-6s %s\n", "workload", "metric",
                "parent median [q1, q3]", "change median [q1, q3]", "wins",
                "verdict");
    for (const std::string &workload : workloadNames()) {
        for (const MetricDef &metric : endToEndMetrics()) {
            const std::string key = workload + "." + metric.name;
            std::vector<double> p, c;
            for (const auto &run : parents)
                if (run.hasGauge(key))
                    p.push_back(run.gauge(key));
            for (const auto &run : changes)
                if (run.hasGauge(key))
                    c.push_back(run.gauge(key));
            if (p.empty() || c.empty())
                continue;

            // `better(a, b)`: a reads better than b for this metric.
            const auto better = [&metric](double a, double b) {
                return metric.better == Better::Lower ? a < b : a > b;
            };
            const std::size_t pairs = std::min(p.size(), c.size());
            std::size_t wins = 0;
            for (std::size_t i = 0; i < pairs; ++i)
                wins += better(c[i], p[i]);
            const auto [p_min, p_max] =
                std::minmax_element(p.begin(), p.end());
            const auto [c_min, c_max] =
                std::minmax_element(c.begin(), c.end());
            const bool lower = metric.better == Better::Lower;
            // The worst change run beats the best parent run, or the
            // best change run loses to the worst parent run.
            const bool all_better = better(lower ? *c_max : *c_min,
                                           lower ? *p_min : *p_max);
            const bool all_worse = better(lower ? *p_max : *p_min,
                                          lower ? *c_min : *c_max);

            const Quartiles pq = quartiles(p), cq = quartiles(c);
            const double spread = std::max((pq.q3 - pq.q1) / pq.median,
                                           (cq.q3 - cq.q1) / cq.median);
            // Positive when the change reads worse than the parent.
            const double worse = (metric.better == Better::Lower
                                      ? cq.median - pq.median
                                      : pq.median - cq.median) /
                                 pq.median;
            const char *verdict = "no regression";
            if (10 * wins >= 9 * pairs && worse < 0 &&
                std::fabs(cq.median - pq.median) > pq.q3 - pq.q1)
                verdict = "improved";
            else if (worse > metric.bound &&
                     (spread <= metric.bound || all_worse))
                verdict = "regression";
            else if (spread > metric.bound && !all_better)
                verdict = "unresolved";
            regressed |= verdict == std::string("regression");

            char ps[64], cs[64], ws[16];
            std::snprintf(ps, sizeof(ps), "%.6g [%.6g, %.6g]", pq.median,
                          pq.q1, pq.q3);
            std::snprintf(cs, sizeof(cs), "%.6g [%.6g, %.6g]", cq.median,
                          cq.q1, cq.q3);
            std::snprintf(ws, sizeof(ws), "%zu/%zu", wins, pairs);
            std::printf("%-13s %-12s %-34s %-34s %-6s %s\n",
                        workload.c_str(), metric.name.c_str(), ps, cs, ws,
                        verdict);
        }
    }
    return regressed ? 1 : 0;
}

} // namespace cachescope::perf
