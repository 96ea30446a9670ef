/**
 * @file
 * Full-system kernel differential: the co-simulation runs the
 * benchmark measures — the 8x8 radix accuracy target at quantum 256
 * and the 4x4 lu lane at quantum 64 — must end at the same tick with
 * the same complete statistics dump under the object-path oracle and
 * the production SoA kernel. This is the kernel contract at the level
 * of a whole run (cores, caches, directory, bridge coupling and tuned
 * latency table included), with small op budgets.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/oracle_kernel.hh"
#include "cosim/full_system.hh"
#include "sim/config.hh"
#include "stats/output.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

using Keys = std::vector<std::pair<std::string, std::string>>;

struct Outcome
{
    Tick finish = 0;
    bool done = false;
    std::string stats;
};

Outcome
runWith(const Keys &keys, bool oracle)
{
    Config cfg;
    for (const auto &[k, v] : keys)
        cfg.set(k, v);
    test::OracleKernel kernel(oracle);
    FullSystem sys(cfg, FullSystemOptions::fromConfig(cfg));
    Outcome o;
    o.finish = sys.run();
    o.done = sys.allCoresDone();
    std::ostringstream os;
    stats::dumpText(os, sys.simulation().statsRoot());
    o.stats = os.str();
    return o;
}

void
expectKernelsAgree(const Keys &keys)
{
    Outcome object = runWith(keys, true);
    Outcome soa = runWith(keys, false);
    ASSERT_TRUE(object.done);
    ASSERT_TRUE(soa.done);
    // The dump covers the detailed fabric's per-router counters.
    ASSERT_NE(soa.stats.find("flits_routed"), std::string::npos);
    EXPECT_EQ(soa.finish, object.finish);
    EXPECT_TRUE(soa.stats == object.stats)
        << "stats dumps differ between the oracle and soa";
}

TEST(KernelDifferential, AccuracyTargetMesh8Radix)
{
    // The cosim-mesh8 benchmark configuration with a short op budget.
    expectKernelsAgree({
        {"system.mode", "cosim"},
        {"system.app", "radix"},
        {"system.ops_per_core", "40"},
        {"system.quantum", "256"},
        {"noc.columns", "8"},
        {"noc.rows", "8"},
        {"noc.vcs_per_vnet", "1"},
        {"noc.buffer_depth", "2"},
        {"mem.l1_sets", "32"},
        {"mem.dram_latency", "40"},
        {"mem.mshrs", "16"},
        {"sim.seed", "1"},
    });
}

TEST(KernelDifferential, Lane4LuQuantum64)
{
    // The 4x4 lu lane (remote-lane4's configuration, in process).
    expectKernelsAgree({
        {"system.mode", "cosim"},
        {"system.app", "lu"},
        {"system.ops_per_core", "150"},
        {"system.quantum", "64"},
        {"noc.columns", "4"},
        {"noc.rows", "4"},
        {"mem.l1_sets", "16"},
        {"sim.seed", "42"},
    });
}

} // namespace
