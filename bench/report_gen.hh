/**
 * @file
 * Markdown report generation from cpx-sweep-1 JSON documents.
 *
 * tools/cpxreport is a thin wrapper around this: load a sweep results
 * file (as written by cpxbench), render a human-readable markdown
 * report, write it to stdout or a file. The
 * generator lives in the bench library so tests can drive it
 * directly and CI can golden-file its output.
 *
 * Sections (DESIGN.md §13, §17):
 *  1. per-application execution-time decomposition tables normalized
 *     to BASIC = 100 — the shape of the paper's Figures 2/3;
 *  2. directory pressure for non-full-map sharer-set points;
 *  3. per-link mesh utilization (peak vs mean) for mesh points that
 *     carry a "timeseries" block;
 *  4. "Where the cycles went": the causal (class x segment) stall
 *     attribution matrix and lock home-queue split for points that
 *     carry an "attribution" block (--attrib);
 *  5. "Contention hot spots": the attribution hot-block / hot-lock
 *     tables (queue-wait totals, means, p99s per address);
 *  6. top-N phase anomalies: intervals where a sampled metric
 *     deviates more than 2σ from its run mean.
 *
 * Output is deterministic: document order drives grouping, and every
 * ranking breaks ties on (point index, metric name, interval row).
 * Sparse inputs degrade to explicit "no data" notes, never to a
 * failure: only a structurally invalid document (missing schema
 * marker, unparseable JSON) makes generation fail.
 */

#ifndef CPX_BENCH_REPORT_GEN_HH
#define CPX_BENCH_REPORT_GEN_HH

#include <cstddef>
#include <string>

#include "bench/runner.hh"

namespace cpx::bench
{

struct ReportOptions
{
    std::size_t topAnomalies = 10;  //!< rows in the anomaly table
    std::size_t topLinks = 10;      //!< rows per link-utilization table
};

/**
 * Render the markdown report for a parsed cpx-sweep-1 document.
 * Returns false (and fills @p error) if the document lacks the
 * schema marker or a points array; structural oddities inside
 * individual points degrade to omitted sections, not failures.
 */
bool generateReport(const JsonValue &doc, const ReportOptions &opts,
                    std::string &out, std::string &error);

/**
 * Load @p json_path, generate, and write to @p out_path (empty =
 * stdout). Returns false and fills @p error on unreadable input,
 * invalid schema, or an unwritable output path.
 */
bool generateReportFile(const std::string &json_path,
                        const ReportOptions &opts,
                        const std::string &out_path,
                        std::string &error);

} // namespace cpx::bench

#endif // CPX_BENCH_REPORT_GEN_HH
