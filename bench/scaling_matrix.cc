/**
 * @file
 * Scaling matrix (ours): the paper's protocol matrix at 16/64/256
 * nodes across directory sharer-set representations.
 *
 * The ROADMAP's open question: does P+CW's traffic advantage survive
 * when the directory can no longer name every sharer? This bench
 * re-runs the protocol × consistency matrix at the paper's 16 nodes
 * and at 64/256 nodes, under the full-map, limited-pointer
 * (broadcast and eviction overflow policies) and coarse-vector
 * directories (DESIGN.md §16), reporting execution time and network
 * traffic relative to BASIC on the same machine.
 *
 * Deliberately NOT part of the cpxbench default suite (its BenchDef
 * sets defaultSuite = false): the committed BENCH_baseline.json gate
 * requires an unchanged point count, and these grids are an order of
 * magnitude beyond the smoke sweep. Run it by name:
 *
 *   cpxbench --only=scaling_matrix --scale=0.05 --json=SCALING.json
 */

#include <cstdio>

#include "bench/common.hh"

namespace
{

using namespace cpx;
using namespace cpx::bench;

struct ProtoCol
{
    const char *label;
    ProtocolConfig proto;
    Consistency consistency;
};

RenderFn
setup(SweepRunner &runner, const Options &)
{
    const std::vector<unsigned> counts{16, 64, 256};
    const std::vector<std::string> reps{"fullmap", "limptr4B",
                                        "limptr4E", "coarse4"};
    // CW requires release consistency (paper §3.3/§5.2), so the SC
    // column pairs are limited to the non-CW protocols.
    const std::vector<ProtoCol> protos{
        {"BASIC/SC", ProtocolConfig::basic(),
         Consistency::SequentialConsistency},
        {"BASIC/RC", ProtocolConfig::basic(),
         Consistency::ReleaseConsistency},
        {"P+M/SC", ProtocolConfig::pm(),
         Consistency::SequentialConsistency},
        {"P+M/RC", ProtocolConfig::pm(),
         Consistency::ReleaseConsistency},
        {"P+CW/RC", ProtocolConfig::pcw(),
         Consistency::ReleaseConsistency},
    };
    const std::string app = "mp3d";

    // count-index -> rep-index -> proto-index -> handle.
    std::vector<std::vector<std::vector<std::size_t>>> grid;
    for (unsigned nodes : counts) {
        std::vector<std::vector<std::size_t>> per_rep;
        for (const std::string &rep : reps) {
            DirectoryParams dir;
            if (!dir.parseSpec(rep))
                fatal("scaling_matrix: bad rep spec '%s'",
                      rep.c_str());
            std::string tag = "scaling_matrix/n" +
                              std::to_string(nodes) + "/" + rep;
            std::vector<std::size_t> handles;
            for (const ProtoCol &pc : protos) {
                handles.push_back(runner.add(
                    app,
                    makeScaledParams(pc.proto, pc.consistency, nodes,
                                     dir),
                    tag, nodes));
            }
            per_rep.push_back(std::move(handles));
        }
        grid.push_back(std::move(per_rep));
    }

    return [&runner, grid, counts, reps, protos, app]() {
        printBanner(
            "Scaling matrix — protocols x directory representations "
            "at 16/64/256 nodes (exec time ratio and traffic ratio "
            "vs BASIC/RC on the same machine)",
            "(not in the paper — answers the ROADMAP's P+CW-at-scale "
            "question)");

        for (std::size_t c = 0; c < counts.size(); ++c) {
            std::printf("\n%s, %u nodes:\n%-10s", app.c_str(),
                        counts[c], "dir");
            for (const ProtoCol &pc : protos)
                std::printf(" %16s", pc.label);
            std::printf("  %10s %8s\n", "ovfl-bcast", "ptr-evict");
            for (std::size_t r = 0; r < reps.size(); ++r) {
                const std::vector<std::size_t> &row = grid[c][r];
                if (!rowOk(runner, row,
                           "scaling_matrix n" +
                               std::to_string(counts[c]) + " " +
                               reps[r]))
                    continue;
                // Column 1 is BASIC/RC: the in-row reference.
                const SweepResult &base = runner[row[1]];
                Tick tb = base.run.execTime;
                std::uint64_t bb = base.run.stats.netBytes;
                std::printf("%-10s", reps[r].c_str());
                std::uint64_t ovfl = 0, evict = 0;
                for (std::size_t p = 0; p < protos.size(); ++p) {
                    const SweepResult &res = runner[row[p]];
                    Tick t = res.run.execTime;
                    std::uint64_t bytes = res.run.stats.netBytes;
                    std::printf(" %6.0f%% t %6.0f%% b",
                                100.0 * t / tb, 100.0 * bytes / bb);
                    ovfl += res.run.stats.dirOverflowBroadcasts;
                    evict += res.run.stats.dirPointerEvictions;
                }
                std::printf("  %10llu %8llu\n",
                            static_cast<unsigned long long>(ovfl),
                            static_cast<unsigned long long>(evict));
            }
        }
    };
}

} // anonymous namespace

CPX_BENCH_DEFINE(scaling_matrix,
                 "Scaling matrix — 16/64/256-node directory "
                 "representations", 130, setup, false)
