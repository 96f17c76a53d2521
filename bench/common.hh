/**
 * @file
 * Shared plumbing for the benchmark harness.
 *
 * Every bench module regenerates one table or figure of the paper.
 * Modules run unattended under tools/cpxbench with defaults tuned so
 * the whole harness finishes in minutes; `--scale=<f>` / `--procs=<n>` (or the
 * CPX_SCALE environment variable) rescale the workloads, and
 * `--jobs=<n>` / `--json=<path>` select the host parallelism and the
 * machine-readable output of the sweep runner (bench/runner.hh).
 */

#ifndef CPX_BENCH_COMMON_HH
#define CPX_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "bench/runner.hh"

namespace cpx::bench
{

/**
 * Render guard for fault-isolated sweeps: true iff every handle in
 * @p handles completed and verified. Otherwise prints a single
 * skip-note naming @p what and each failed point's status, so a
 * table whose inputs are missing is dropped loudly instead of
 * rendered full of zeros. Under --isolate=none this never fires
 * (failures are fatal before rendering starts).
 */
inline bool
rowOk(const SweepRunner &runner,
      const std::vector<std::size_t> &handles, const std::string &what)
{
    std::string bad;
    for (std::size_t h : handles) {
        if (runner.ok(h))
            continue;
        if (!bad.empty())
            bad += ", ";
        if (h < runner.results().size()) {
            const SweepResult &r = runner[h];
            bad += r.point.app + " [" +
                   pointStatusName(r.status) + "]";
        } else {
            bad += "[not-run]";
        }
    }
    if (bad.empty())
        return true;
    std::printf("  (skipping %s — failed point(s): %s)\n",
                what.c_str(), bad.c_str());
    return false;
}

inline void
printBanner(const char *title, const char *paper_expectation)
{
    std::printf("==============================================="
                "=========================\n");
    std::printf("%s\n", title);
    std::printf("paper: %s\n", paper_expectation);
    std::printf("==============================================="
                "=========================\n");
}

} // namespace cpx::bench

#endif // CPX_BENCH_COMMON_HH
