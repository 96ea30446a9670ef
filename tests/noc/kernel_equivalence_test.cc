/**
 * @file
 * Oracle-vs-SoA compute-kernel differential: the production SoA
 * kernel must be bit-identical to the object-path oracle on both
 * detailed backends — same deliveries, same rendered stats tree, and
 * the same checkpoint *bytes*, which is what makes checkpoints
 * interchangeable between them. Also covers the SIMD lane (scalar vs
 * dispatched AVX2 must agree).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/oracle_kernel.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/cpuid.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

struct Delivery
{
    PacketId id;
    Tick deliver_tick;
    Tick latency;
    std::uint32_t hops;

    bool
    operator==(const Delivery &o) const
    {
        return id == o.id && deliver_tick == o.deliver_tick &&
               latency == o.latency && hops == o.hops;
    }
};

void
snapshotStats(const stats::Group &g,
              std::vector<std::tuple<std::string, std::string, double>>
                  &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    std::string archive; ///< checkpoint bytes taken mid-run
};

NocParams
testParams()
{
    NocParams p;
    p.columns = 6;
    p.rows = 6;
    return p;
}

/** Forces the scalar SoA path for the networks built while it lives. */
struct ScalarHost
{
    explicit ScalarHost(bool enable) : enabled(enable)
    {
        if (enabled)
            cpuid::setHostOverrideForTest(false);
    }
    ~ScalarHost()
    {
        if (enabled)
            cpuid::clearHostOverrideForTest();
    }
    bool enabled;
};

template <typename Net>
void
injectTraffic(Net &net)
{
    Rng rng(0x50a, 7);
    std::size_t nodes = net.numNodes();
    for (int i = 0; i < 400; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
}

/** Run to completion under @p kernel ("object" is the oracle),
 *  snapshotting a mid-run checkpoint at tick 200. */
template <typename Net>
RunResult
runKernel(const std::string &kernel, bool scalar = false)
{
    test::OracleKernel oracle(kernel == "object");
    ScalarHost host(scalar);
    Simulation sim;
    Net net(sim, "net", testParams());
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net);
    net.advanceTo(200);
    {
        ArchiveWriter aw;
        net.save(aw);
        saveStats(aw, net);
        r.archive = aw.finish();
    }
    net.advanceTo(20000);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

void
expectSameRun(const RunResult &ref, const RunResult &got,
              const std::string &label)
{
    ASSERT_EQ(got.deliveries.size(), ref.deliveries.size()) << label;
    for (std::size_t k = 0; k < ref.deliveries.size(); ++k)
        ASSERT_TRUE(got.deliveries[k] == ref.deliveries[k])
            << label << " delivery #" << k << " packet "
            << ref.deliveries[k].id;
    ASSERT_EQ(got.stats.size(), ref.stats.size()) << label;
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << label << " stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
    // The strongest claim: both kernels serialise to the same bytes,
    // so one CRC covers both and checkpoints hop across kernels.
    EXPECT_EQ(got.archive, ref.archive) << label << " archive bytes";
}

TEST(KernelEquivalence, CycleNetworkSoaMatchesObject)
{
    RunResult object = runKernel<CycleNetwork>("object");
    ASSERT_EQ(object.deliveries.size(), 400u);
    RunResult soa = runKernel<CycleNetwork>("soa");
    expectSameRun(object, soa, "cycle soa");
}

TEST(KernelEquivalence, DeflectionNetworkSoaMatchesObject)
{
    RunResult object = runKernel<DeflectionNetwork>("object");
    ASSERT_EQ(object.deliveries.size(), 400u);
    RunResult soa = runKernel<DeflectionNetwork>("soa");
    expectSameRun(object, soa, "deflection soa");
}

TEST(KernelEquivalence, SimdLaneMatchesForcedScalar)
{
    // The forced scalar path versus the dispatched default (AVX2 on a
    // capable host/build): the occupancy scan is the only SIMD-touched
    // code, and skipping an all-idle node is a provable no-op, so the
    // runs must agree bit for bit.
    RunResult scalar = runKernel<CycleNetwork>("soa", true);
    RunResult dispatched = runKernel<CycleNetwork>("soa");
    expectSameRun(scalar, dispatched, "cycle simd lane");

    RunResult dscalar = runKernel<DeflectionNetwork>("soa", true);
    RunResult ddispatched = runKernel<DeflectionNetwork>("soa");
    expectSameRun(dscalar, ddispatched, "deflection simd lane");
}

TEST(KernelEquivalence, FabricDescribesItsDispatch)
{
    Simulation sim;
    {
        test::OracleKernel oracle;
        CycleNetwork obj(sim, "obj", testParams());
        EXPECT_EQ(std::string(obj.fabric().kindName()), "object");
        DeflectionNetwork dobj(sim, "dobj", testParams());
        EXPECT_EQ(std::string(dobj.fabric().kindName()), "object");
    }
    ScalarHost host(true);
    CycleNetwork soa(sim, "soa", testParams());
    EXPECT_EQ(std::string(soa.fabric().kindName()), "soa");
    EXPECT_NE(soa.fabric().description().find("scalar"),
              std::string::npos);
}

TEST(KernelEquivalence, FabricRunsTheDispatchedLevel)
{
    // The SoA fabrics take their SIMD level from the host at build
    // time: AVX2 where the build and CPU allow it, scalar otherwise.
    for (bool has_avx2 : {true, false}) {
        cpuid::setHostOverrideForTest(has_avx2);
        const std::string want =
            std::string("simd=") +
            cpuid::simdLevelName(cpuid::hostSimdLevel());
        Simulation sim;
        CycleNetwork cyc(sim, "cyc", testParams());
        DeflectionNetwork defl(sim, "defl", testParams());
        cpuid::clearHostOverrideForTest();
        EXPECT_NE(cyc.fabric().description().find(want),
                  std::string::npos)
            << cyc.fabric().description();
        EXPECT_NE(defl.fabric().description().find(want),
                  std::string::npos)
            << defl.fabric().description();
    }
}

} // namespace
