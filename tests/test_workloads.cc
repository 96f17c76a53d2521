/**
 * @file
 * Application workload tests: each of the paper's five applications
 * runs at reduced scale under representative protocol/consistency
 * combinations, and must produce functionally correct results with a
 * cleanly drained protocol.
 */

#include <gtest/gtest.h>

#include "core/config.hh"
#include "workloads/workload.hh"

namespace cpx
{
namespace
{

struct AppCase
{
    const char *workload;
    ProtocolConfig protocol;
    Consistency consistency;
};

std::vector<AppCase>
appCases()
{
    std::vector<AppCase> cases;
    const Consistency rc = Consistency::ReleaseConsistency;
    const Consistency sc = Consistency::SequentialConsistency;
    for (const char *w : {"mp3d", "cholesky", "water", "lu", "ocean"}) {
        cases.push_back({w, ProtocolConfig::basic(), rc});
        cases.push_back({w, ProtocolConfig::pcw(), rc});
        cases.push_back({w, ProtocolConfig::pcwm(), rc});
        cases.push_back({w, ProtocolConfig::basic(), sc});
        cases.push_back({w, ProtocolConfig::pm(), sc});
    }
    return cases;
}

const char *
consistencyTag(Consistency c)
{
    return c == Consistency::ReleaseConsistency ? "RC" : "SC";
}

std::string
appCaseName(const ::testing::TestParamInfo<AppCase> &info)
{
    std::string proto = info.param.protocol.name();
    for (char &ch : proto)
        if (ch == '+')
            ch = '_';
    return std::string(info.param.workload) + "_" + proto + "_" +
           consistencyTag(info.param.consistency);
}

// The printed parameter becomes part of each case's ctest name. gtest's
// default byte dump would include the workload string's address, which
// address-space randomisation changes from run to run, so print the
// fields instead.
void
PrintTo(const AppCase &c, std::ostream *os)
{
    *os << c.workload << ' ' << c.protocol.name() << ' '
        << consistencyTag(c.consistency);
}

class Applications : public ::testing::TestWithParam<AppCase>
{
};

TEST_P(Applications, VerifiesAndQuiesces)
{
    const AppCase &c = GetParam();
    MachineParams params = makeParams(c.protocol, c.consistency);
    params.numProcs = 8;
    System sys(params);
    auto w = makeWorkload(c.workload, 0.25);
    WorkloadRun run = runWorkload(sys, *w, /*limit=*/2'000'000'000);

    EXPECT_TRUE(run.verified)
        << c.workload << " under " << c.protocol.name();
    EXPECT_TRUE(sys.quiescent());
    EXPECT_GT(run.stats.sharedAccesses, 0u);

    for (NodeId i = 0; i < params.numProcs; ++i) {
        const Processor &p = sys.processor(i);
        EXPECT_EQ(p.times().total(), p.finishTick())
            << "processor " << i << " accounting leak";
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, Applications,
                         ::testing::ValuesIn(appCases()), appCaseName);

TEST(Workloads, EveryApplicationIsDeterministic)
{
    for (const char *app : {"mp3d", "cholesky", "water", "lu",
                            "ocean", "fft"}) {
        auto run_once = [app] {
            MachineParams params = makeParams(ProtocolConfig::pcwm());
            params.numProcs = 8;
            System sys(params);
            auto w = makeWorkload(app, 0.2);
            return runWorkload(sys, *w).execTime;
        };
        Tick first = run_once();
        EXPECT_EQ(first, run_once()) << app;
    }
}

TEST(Workloads, FactoryRejectsUnknownName)
{
    EXPECT_EXIT((void)makeWorkload("nope"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(Workloads, PaperApplicationListMatchesSection4)
{
    const auto &apps = paperApplications();
    ASSERT_EQ(apps.size(), 5u);
    EXPECT_EQ(apps[0], "mp3d");
    EXPECT_EQ(apps[4], "ocean");
}

} // anonymous namespace
} // namespace cpx
