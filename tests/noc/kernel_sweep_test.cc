/**
 * @file
 * Config-space differential of the SoA kernel against the object-path
 * oracle, on both detailed networks. For each point the two must agree
 * on every delivery, the full stats tree and the bytes of a mid-run
 * checkpoint; and the oracle's checkpoint, restored under soa, must
 * finish the run the same way (so restore()'s range checks accept
 * every legal image).
 *
 * CycleNetwork points are drawn from a seeded generator over mesh and
 * torus with rows != columns, xy/yx/westfirst routing (westfirst on
 * meshes only: the turn model is not deadlock-free across wrap links),
 * 1-4 VCs per pool, 1-4 flit buffers, 1-3 pipeline stages, 1-2 cycle
 * links and offered loads from 0.002 packets/node/cycle to far past
 * saturation. DeflectionNetwork points cover mesh and torus with
 * rows != columns, 8-32 byte flits and offered loads from 0.002 to far
 * past 0.1, where deflections start to snowball.
 *
 * Budget: RASIM_KERNEL_SWEEP_POINTS points per network (default 48)
 * starting at seed RASIM_KERNEL_SWEEP_SEED (default 1). A failure
 * prints the seed and its config; rerun one point with
 *   RASIM_KERNEL_SWEEP_SEED=<seed> RASIM_KERNEL_SWEEP_POINTS=1 \
 *       ./noc_kernel_sweep_test --gtest_filter=<the failing test>
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/oracle_kernel.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

struct Point
{
    std::uint64_t seed = 0;
    NocParams params;
    double load = 0.0; ///< packets per node per cycle
    bool deflection = false;
};

std::string
describe(const Point &pt)
{
    const NocParams &p = pt.params;
    std::ostringstream os;
    if (pt.deflection) {
        os << "deflection seed=" << pt.seed << " " << p.topology << " "
           << p.columns << "x" << p.rows
           << " flit_bytes=" << p.flit_bytes << " load=" << pt.load;
        return os.str();
    }
    os << "seed=" << pt.seed << " " << p.topology << " " << p.columns
       << "x" << p.rows << " routing=" << p.routing
       << " vcs_per_vnet=" << p.vcs_per_vnet
       << " buffer_depth=" << p.buffer_depth
       << " pipeline_stages=" << p.pipeline_stages
       << " link_latency=" << p.link_latency << " load=" << pt.load;
    return os.str();
}

/** Offered loads: light, around the knee, and far past saturation. */
constexpr double kLoads[] = {0.002, 0.005, 0.01, 0.02, 0.05,
                             0.1,   0.2,   0.4,  0.8};

/** Draw a mesh or torus (returned: is it a torus?) of 1-6 x 1-6
 *  nodes with rows != columns (2-6 on a torus). */
bool
drawShape(Rng &rng, NocParams &p)
{
    bool torus = rng.bernoulli(0.5);
    p.topology = torus ? "torus" : "mesh";
    p.vc_classes = torus ? 2 : 1;
    int lo = torus ? 2 : 1;
    p.columns = static_cast<int>(rng.rangeInclusive(lo, 6));
    do
        p.rows = static_cast<int>(rng.rangeInclusive(lo, 6));
    while (p.rows == p.columns);
    return torus;
}

Point
drawPoint(std::uint64_t seed)
{
    Rng rng(seed, 0x5eed);
    Point pt;
    pt.seed = seed;
    NocParams &p = pt.params;
    bool torus = drawShape(rng, p);
    static const char *const routings[] = {"xy", "yx", "westfirst"};
    p.routing = routings[rng.range(torus ? 2 : 3)];
    p.vcs_per_vnet = static_cast<int>(rng.rangeInclusive(1, 4));
    p.buffer_depth = static_cast<int>(rng.rangeInclusive(1, 4));
    p.pipeline_stages = static_cast<int>(rng.rangeInclusive(1, 3));
    p.link_latency = static_cast<int>(rng.rangeInclusive(1, 2));
    pt.load = kLoads[rng.range(std::size(kLoads))];
    return pt;
}

/** A DeflectionNetwork point: only the topology, its size, the flit
 *  width and the load shape a bufferless fabric. */
Point
drawDeflectionPoint(std::uint64_t seed)
{
    Rng rng(seed, 0xdef1);
    Point pt;
    pt.seed = seed;
    pt.deflection = true;
    drawShape(rng, pt.params);
    static const std::uint32_t widths[] = {8, 16, 32};
    pt.params.flit_bytes = widths[rng.range(std::size(widths))];
    pt.load = kLoads[rng.range(std::size(kLoads))];
    return pt;
}

/** Cycles of offered traffic; the checkpoint is taken halfway. */
constexpr Tick kInjectCycles = 160;
constexpr Tick kCheckpointTick = kInjectCycles / 2;
/** Drain bound: far above what any point needs to empty the fabric. */
constexpr Tick kDrainLimit = 400000;

using StatRows = std::vector<std::tuple<std::string, std::string, double>>;

void
snapshotStats(const stats::Group &g, StatRows &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

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

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::size_t delivered_at_checkpoint = 0;
    StatRows stats;
    std::string archive; ///< network + stats at kCheckpointTick
    bool drained = false;
};

/** Bernoulli injection at pt.load from every node for kInjectCycles,
 *  uniform destinations and classes, 8-128 byte packets. */
template <typename Net>
void
injectTraffic(Net &net, const Point &pt)
{
    Rng rng(pt.seed, 7);
    static const std::uint32_t sizes[] = {8, 32, 64, 128};
    auto nodes = static_cast<std::uint32_t>(net.numNodes());
    PacketId id = 1;
    for (Tick t = 0; t < kInjectCycles; ++t)
        for (std::uint32_t src = 0; src < nodes; ++src)
            if (rng.bernoulli(pt.load))
                net.inject(makePacket(
                    id++, src, rng.range(nodes),
                    static_cast<MsgClass>(rng.range(num_vnets)),
                    sizes[rng.range(4)], t));
}

template <typename Net>
void
drain(Net &net, RunResult &r)
{
    for (Tick t = kInjectCycles; t <= kDrainLimit && !net.idle();
         t += 1000)
        net.advanceTo(t);
    r.drained = net.idle();
    snapshotStats(net, r.stats);
}

/** Run @p pt under @p kernel ("object" is the oracle). */
template <typename Net>
RunResult
runKernel(const Point &pt, const std::string &kernel)
{
    test::OracleKernel oracle(kernel == "object");
    Simulation sim;
    Net net(sim, "net", pt.params);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net, pt);
    net.advanceTo(kCheckpointTick);
    r.delivered_at_checkpoint = r.deliveries.size();
    ArchiveWriter aw;
    net.save(aw);
    saveStats(aw, net);
    r.archive = aw.finish();
    drain(net, r);
    return r;
}

/** Restore @p archive under @p kernel and run to the end. */
template <typename Net>
RunResult
resumeKernel(const Point &pt, const std::string &kernel,
             const std::string &archive)
{
    test::OracleKernel oracle(kernel == "object");
    Simulation sim;
    Net net(sim, "net", pt.params);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    ArchiveReader ar(archive);
    net.restore(ar);
    restoreStats(ar, net);
    drain(net, r);
    return r;
}

/** "" when equal, else the first difference. Deliveries of @p got
 *  are compared against @p ref's from index @p ref_from on. */
std::string
firstDifference(const RunResult &ref, const RunResult &got,
                std::size_t ref_from = 0)
{
    std::ostringstream os;
    if (!ref.drained || !got.drained)
        return "the network did not drain";
    if (got.deliveries.size() + ref_from != ref.deliveries.size()) {
        os << got.deliveries.size() << " deliveries, expected "
           << ref.deliveries.size() - ref_from;
        return os.str();
    }
    for (std::size_t k = 0; k < got.deliveries.size(); ++k)
        if (!(got.deliveries[k] == ref.deliveries[ref_from + k])) {
            os << "delivery #" << ref_from + k << " (packet "
               << ref.deliveries[ref_from + k].id << ") differs";
            return os.str();
        }
    if (got.stats.size() != ref.stats.size())
        return "stats trees differ in shape";
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        if (got.stats[k] != ref.stats[k]) {
            os << "stat " << std::get<0>(ref.stats[k]) << "."
               << std::get<1>(ref.stats[k]) << " differs";
            return os.str();
        }
    return "";
}

/** Run one point under both kernels; "" when every check agrees. */
template <typename Net>
std::string
checkPoint(const Point &pt)
{
    RunResult object = runKernel<Net>(pt, "object");
    RunResult soa = runKernel<Net>(pt, "soa");
    std::string diff = firstDifference(object, soa);
    if (!diff.empty())
        return "soa vs object: " + diff;
    if (soa.archive != object.archive)
        return "soa vs object: checkpoint bytes differ";
    RunResult resumed = resumeKernel<Net>(pt, "soa", object.archive);
    diff = firstDifference(object, resumed,
                           object.delivered_at_checkpoint);
    if (!diff.empty())
        return "object checkpoint resumed under soa: " + diff;
    return "";
}

std::uint64_t
envOr(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtoull(v, nullptr, 10) : fallback;
}

TEST(KernelSweep, AccuracyTargetConfig)
{
    // The E1-E6 accuracy experiments' fabric (the cosim-mesh8
    // benchmark): 8x8 mesh, XY, one VC per vnet, 2-flit buffers.
    for (double load : {0.002, 0.02, 0.1, 0.4}) {
        Point pt;
        pt.seed = 88;
        pt.params.columns = 8;
        pt.params.rows = 8;
        pt.params.vcs_per_vnet = 1;
        pt.params.buffer_depth = 2;
        pt.load = load;
        std::string diff = checkPoint<CycleNetwork>(pt);
        EXPECT_EQ(diff, "") << describe(pt);
    }
}

TEST(KernelSweep, DeflectionA1Config)
{
    // The A1 router-organisation comparison's bufferless fabric: a
    // square 8x8 mesh (the generator draws rows != columns only) at
    // A1's offered loads, which straddle the 0.1 snowball point, and
    // one far past it.
    for (double load : {0.01, 0.03, 0.06, 0.1, 0.14, 0.4}) {
        Point pt;
        pt.seed = 88;
        pt.deflection = true;
        pt.params.columns = 8;
        pt.params.rows = 8;
        pt.load = load;
        std::string diff = checkPoint<DeflectionNetwork>(pt);
        EXPECT_EQ(diff, "") << describe(pt);
    }
}

/** Check the seeded budget of points drawn by @p draw on @p Net,
 *  reporting up to five failing seeds. */
template <typename Net>
void
sweep(Point (*draw)(std::uint64_t))
{
    std::uint64_t first = envOr("RASIM_KERNEL_SWEEP_SEED", 1);
    std::uint64_t points = envOr("RASIM_KERNEL_SWEEP_POINTS", 48);
    int failures = 0;
    for (std::uint64_t s = first; s < first + points; ++s) {
        Point pt = draw(s);
        std::string diff = checkPoint<Net>(pt);
        if (diff.empty())
            continue;
        ADD_FAILURE() << "kernel sweep failed at " << describe(pt)
                      << ": " << diff
                      << "\n  rerun: RASIM_KERNEL_SWEEP_SEED=" << s
                      << " RASIM_KERNEL_SWEEP_POINTS=1";
        if (++failures == 5)
            break;
    }
}

TEST(KernelSweep, SeededConfigSpace)
{
    sweep<CycleNetwork>(drawPoint);
}

TEST(KernelSweep, DeflectionSeededConfigSpace)
{
    sweep<DeflectionNetwork>(drawDeflectionPoint);
}

TEST(KernelSweep, GeneratorCoversTheSpace)
{
    // The default budget must reach every axis value the sweep claims
    // to cover, or a short tier-1 run would silently test less.
    std::uint64_t points = envOr("RASIM_KERNEL_SWEEP_POINTS", 48);
    std::uint64_t first = envOr("RASIM_KERNEL_SWEEP_SEED", 1);
    if (points < 48)
        GTEST_SKIP() << "budget below the default";
    std::vector<int> topo(2), routing(3), vcs(5), depth(5), stages(4);
    int past_saturation = 0, light = 0;
    for (std::uint64_t s = first; s < first + points; ++s) {
        Point pt = drawPoint(s);
        const NocParams &p = pt.params;
        EXPECT_NE(p.rows, p.columns) << describe(pt);
        ++topo[p.topology == "torus"];
        ++routing[p.routing == "xy" ? 0 : p.routing == "yx" ? 1 : 2];
        ++vcs[p.vcs_per_vnet];
        ++depth[p.buffer_depth];
        ++stages[p.pipeline_stages];
        past_saturation += pt.load >= 0.2;
        light += pt.load <= 0.01;
    }
    for (int k = 0; k < 2; ++k)
        EXPECT_GT(topo[k], 0) << "topology " << k;
    for (int k = 0; k < 3; ++k)
        EXPECT_GT(routing[k], 0) << "routing " << k;
    for (int k = 1; k <= 4; ++k) {
        EXPECT_GT(vcs[k], 0) << "vcs_per_vnet " << k;
        EXPECT_GT(depth[k], 0) << "buffer_depth " << k;
    }
    for (int k = 1; k <= 3; ++k)
        EXPECT_GT(stages[k], 0) << "pipeline_stages " << k;
    EXPECT_GT(past_saturation, 0);
    EXPECT_GT(light, 0);
}

TEST(KernelSweep, DeflectionGeneratorCoversTheSpace)
{
    std::uint64_t points = envOr("RASIM_KERNEL_SWEEP_POINTS", 48);
    std::uint64_t first = envOr("RASIM_KERNEL_SWEEP_SEED", 1);
    if (points < 48)
        GTEST_SKIP() << "budget below the default";
    std::vector<int> topo(2), width(3);
    int past_snowball = 0, light = 0;
    for (std::uint64_t s = first; s < first + points; ++s) {
        Point pt = drawDeflectionPoint(s);
        const NocParams &p = pt.params;
        EXPECT_NE(p.rows, p.columns) << describe(pt);
        ++topo[p.topology == "torus"];
        ++width[p.flit_bytes == 8 ? 0 : p.flit_bytes == 16 ? 1 : 2];
        past_snowball += pt.load > 0.1;
        light += pt.load <= 0.01;
    }
    for (int k = 0; k < 2; ++k)
        EXPECT_GT(topo[k], 0) << "topology " << k;
    for (int k = 0; k < 3; ++k)
        EXPECT_GT(width[k], 0) << "flit width " << k;
    EXPECT_GT(past_snowball, 0);
    EXPECT_GT(light, 0);
}

} // namespace
