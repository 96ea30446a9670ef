/**
 * @file
 * Serial-vs-parallel differential harness: the determinism contract
 * says a pooled run must be *bit-identical* to a serial run — same
 * per-packet delivery ticks, hop counts and delivery order, and the
 * same rendered statistics down to float rounding — for both detailed
 * network backends. This is the property that makes the paper's
 * parallel co-simulation claim testable rather than aspirational.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/oracle_kernel.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/parallel_engine.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

/** One delivered packet, every field a parallel run could disturb. */
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

/** Flatten a stats subtree to (path.stat, sub-name, value) rows. */
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
    std::vector<Delivery> deliveries; ///< in delivery order
    std::vector<std::tuple<std::string, std::string, double>> stats;
};

/** Seeded random traffic: mixed sizes, classes, all node pairs. */
template <typename Net>
void
driveTraffic(Net &net, std::size_t nodes)
{
    Rng rng(0x6e7, 3);
    for (int i = 0; i < 600; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
    net.advanceTo(20000);
}

template <typename Net>
RunResult
runNetwork(StepEngine *engine, const std::string &kernel = "object")
{
    test::OracleKernel oracle(kernel == "object");
    Simulation sim;
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    Net net(sim, "net", p);
    if (engine)
        net.setEngine(engine);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                pkt->latency(), pkt->hops});
    });
    driveTraffic(net, net.numNodes());
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

    // Rendered statistics must match bit for bit: identical sample
    // order (fixed-order reduction) means identical float rounding,
    // not merely close means.
    ASSERT_EQ(got.stats.size(), ref.stats.size()) << label;
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << label << " stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
}

template <typename Net>
void
expectEngineEquivalence()
{
    // Oracle-kernel serial is the single reference; every other
    // (kernel × engine) cell must be bit-identical to it.
    RunResult serial = runNetwork<Net>(nullptr);
    ASSERT_EQ(serial.deliveries.size(), 600u);

    for (const char *kernel : {"object", "soa"}) {
        if (std::string(kernel) != "object") {
            RunResult alt = runNetwork<Net>(nullptr, kernel);
            expectSameRun(serial, alt,
                          std::string("kernel=") + kernel + " serial");
        }
        for (int workers : {1, 2, 8}) {
            ParallelEngine pool(workers);
            RunResult parallel = runNetwork<Net>(&pool, kernel);
            expectSameRun(serial, parallel,
                          std::string("kernel=") + kernel +
                              " workers=" + std::to_string(workers));
        }
    }
}

TEST(EngineEquivalence, CycleNetworkBitIdenticalAcrossEngines)
{
    expectEngineEquivalence<CycleNetwork>();
}

TEST(EngineEquivalence, DeflectionNetworkBitIdenticalAcrossEngines)
{
    expectEngineEquivalence<DeflectionNetwork>();
}

TEST(EngineEquivalence, SharedPoolAcrossBothBackends)
{
    // One pool can serve several networks in turn (the bridge reuses
    // its engine across quanta); results stay identical to serial.
    ParallelEngine pool(2);
    RunResult cyc_serial = runNetwork<CycleNetwork>(nullptr);
    RunResult cyc_pool = runNetwork<CycleNetwork>(&pool);
    RunResult def_serial = runNetwork<DeflectionNetwork>(nullptr);
    RunResult def_pool = runNetwork<DeflectionNetwork>(&pool);
    EXPECT_TRUE(cyc_serial.deliveries == cyc_pool.deliveries);
    EXPECT_TRUE(def_serial.deliveries == def_pool.deliveries);
    EXPECT_TRUE(cyc_serial.stats == cyc_pool.stats);
    EXPECT_TRUE(def_serial.stats == def_pool.stats);
}

} // namespace
