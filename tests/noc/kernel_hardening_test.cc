/**
 * @file
 * Robustness of the SoA cycle kernel against bad input:
 *  - restore() of an archive with any out-of-range index (VC state,
 *    output port/VC, every arbiter cursor, the NIC's current VC, the
 *    VC of a link flit or credit) raises a typed SimError instead of
 *    indexing the flat arrays out of bounds or shifting a request word
 *    by its width or more; the object kernel, which restores the same
 *    archives, is held to the same table;
 *  - a geometry past the kernel's fixed-width limits (ports per
 *    router, VCs per port, buffer depth) is a typed config error that
 *    states the limit.
 *
 * The corrupt archives are made by re-encoding a real mid-run image
 * field by field (the layout both kernels share) with one value
 * replaced, so the CRC is valid and only restore()'s own checks
 * stand between the bad value and the allocators.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/expect_error.hh"
#include "common/oracle_kernel.hh"
#include "noc/cycle_network.hh"
#include "noc/kernel/soa_cycle.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

NocParams
meshParams()
{
    NocParams p;
    p.columns = 4;
    p.rows = 4;
    // Two-cycle links keep flits and credits on the links between
    // cycles (a one-cycle link delivers within the cycle it sends).
    p.link_latency = 2;
    return p;
}

/** A CycleNetwork archive taken at tick 25 after injecting @p packets
 *  (the default 300 leaves flits buffered in routers, queued in NICs
 *  and in flight on links, and credits on links). */
std::string
midRunArchive(const NocParams &p, int packets = 300)
{
    Simulation sim;
    CycleNetwork net(sim, "net", p);
    Rng rng(0xbad, 3);
    for (int i = 0; i < packets; ++i)
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(net.numNodes())),
            static_cast<NodeId>(rng.range(net.numNodes())),
            static_cast<MsgClass>(rng.range(3)), 64,
            static_cast<Tick>(i / 10)));
    net.advanceTo(25);
    ArchiveWriter aw;
    net.save(aw);
    return aw.finish();
}

/**
 * Copies a CycleNetwork archive value by value (the layout of
 * CycleNetwork::save and the fabric sections), replacing the first
 * occurrence of one named field — for flit fields, the first flit in
 * the named section kind — with a chosen value.
 */
class Corrupter
{
  public:
    Corrupter(const NocParams &p, std::string field, std::int64_t value)
        : p_(p), field_(std::move(field)), value_(value)
    {
    }

    /** The re-encoded archive; hit() says whether the field was
     *  found. */
    std::string
    run(const std::string &bytes)
    {
        ArchiveReader r(bytes);
        EXPECT_TRUE(r.ok()) << r.error();
        ArchiveWriter w;
        const int n = p_.numNodes();
        const int P = 5;
        const int V = p_.totalVcs();
        const int C = num_vnets * p_.vc_classes;

        section(r, w, "cycle_net", [&] {
            for (int k = 0; k < 4; ++k)
                w.putU64(r.getU64());
            for (int i = 0; i < n; ++i)
                w.putU8(r.getU8());
            std::uint64_t pending = u64(r, w, "");
            for (std::uint64_t k = 0; k < pending; ++k)
                savePacket(w, *restorePacket(r));

            table_ = restorePacketTable(r);
            savePacketTable(w, table_);
            for (int i = 0; i < n; ++i)
                section(r, w, "router", [&] {
                    for (int port = 0; port < P; ++port) {
                        i64(r, w, "ip_sa_rr");
                        for (int v = 0; v < V; ++v) {
                            u8(r, w, "ivc_state");
                            i64(r, w, "ivc_out_port");
                            i64(r, w, "ivc_out_vc");
                            u8(r, w, "ivc_out_class");
                            u8(r, w, "ivc_out_dim");
                            flits(r, w, "fifo");
                        }
                    }
                    for (int port = 0; port < P; ++port) {
                        i64(r, w, "op_sa_rr");
                        w.putU64(r.getU64());
                        for (int c = 0; c < C; ++c)
                            i64(r, w, "op_va_rr");
                        for (int v = 0; v < V; ++v) {
                            w.putBool(r.getBool());
                            w.putI64(r.getI64());
                        }
                    }
                });
            for (int i = 0; i < n; ++i)
                section(r, w, "nic", [&] {
                    for (int v = 0; v < num_vnets; ++v) {
                        i64(r, w, "nicq_cur_vc");
                        flits(r, w, "nicq");
                    }
                    for (int v = 0; v < V; ++v) {
                        w.putBool(r.getBool());
                        w.putI64(r.getI64());
                    }
                    for (int v = 0; v < num_vnets; ++v)
                        i64(r, w, "nic_va_rr");
                    i64(r, w, "nic_rr_vnet");
                    w.putU64(r.getU64());
                    std::uint64_t n_rx = u64(r, w, "");
                    for (std::uint64_t k = 0; k < n_rx; ++k) {
                        w.putU64(r.getU64());
                        w.putU32(r.getU32());
                    }
                });
            for (int l = 0; l < links(); ++l)
                section(r, w, "link", [&] {
                    std::uint64_t nf = u64(r, w, "");
                    for (std::uint64_t k = 0; k < nf; ++k) {
                        w.putU64(r.getU64());
                        flit(r, w, "link");
                    }
                    std::uint64_t nc = u64(r, w, "");
                    for (std::uint64_t k = 0; k < nc; ++k) {
                        w.putU64(r.getU64());
                        i64(r, w, "credit_vc");
                    }
                });
        });
        return w.finish();
    }

    bool hit() const { return hit_; }

  private:
    /** Router links of the mesh plus one injection and one ejection
     *  link per node. */
    int
    links() const
    {
        int c = p_.columns, rw = p_.rows;
        return 2 * (c - 1) * rw + 2 * c * (rw - 1) + 2 * c * rw;
    }

    bool
    take(const std::string &name)
    {
        if (hit_ || name != field_)
            return false;
        hit_ = true;
        return true;
    }

    void
    section(ArchiveReader &r, ArchiveWriter &w, const char *tag,
            const std::function<void()> &body)
    {
        r.expectSection(tag);
        w.beginSection(tag);
        body();
        r.endSection();
        w.endSection();
    }

    std::int64_t
    i64(ArchiveReader &r, ArchiveWriter &w, const std::string &name)
    {
        std::int64_t v = r.getI64();
        w.putI64(take(name) ? value_ : v);
        return v;
    }

    std::uint64_t
    u64(ArchiveReader &r, ArchiveWriter &w, const std::string &name)
    {
        std::uint64_t v = r.getU64();
        w.putU64(take(name) ? static_cast<std::uint64_t>(value_) : v);
        return v;
    }

    void
    u8(ArchiveReader &r, ArchiveWriter &w, const std::string &name)
    {
        std::uint8_t v = r.getU8();
        w.putU8(take(name) ? static_cast<std::uint8_t>(value_) : v);
    }

    void
    flit(ArchiveReader &r, ArchiveWriter &w, const std::string &where)
    {
        Flit f = restoreFlit(r, table_);
        if (take(where + "_flit_vc"))
            f.vc = static_cast<std::int8_t>(value_);
        else if (take(where + "_flit_vnet"))
            f.vnet = static_cast<std::uint8_t>(value_);
        else if (take(where + "_flit_vc_class"))
            f.vc_class = static_cast<std::uint8_t>(value_);
        saveFlit(w, f);
    }

    void
    flits(ArchiveReader &r, ArchiveWriter &w, const std::string &where)
    {
        std::uint64_t sz = u64(r, w, where + "_size");
        for (std::uint64_t k = 0; k < sz; ++k)
            flit(r, w, where);
    }

    const NocParams &p_;
    std::string field_;
    std::int64_t value_;
    bool hit_ = false;
    PacketTable table_;
};

void
restoreInto(const NocParams &p, const std::string &bytes)
{
    Simulation sim;
    CycleNetwork net(sim, "net", p);
    ArchiveReader ar(bytes);
    ASSERT_TRUE(ar.ok()) << ar.error();
    net.restore(ar);
}

TEST(SoaRestore, UncorruptedReencodingRoundTrips)
{
    // The re-encoder itself must be exact, or the corruption cases
    // below would prove nothing.
    const NocParams p = meshParams();
    std::string bytes = midRunArchive(p);
    Corrupter none(p, "no-such-field", 0);
    EXPECT_EQ(none.run(bytes), bytes);
    EXPECT_FALSE(none.hit());

    Simulation sim;
    CycleNetwork net(sim, "net", p);
    ArchiveReader ar(bytes);
    net.restore(ar);
    ArchiveWriter aw;
    net.save(aw);
    EXPECT_EQ(aw.finish(), bytes);
}

struct BadField
{
    const char *field;
    std::int64_t value;
};

/** Restore every corruption of a mid-run archive under @p kernel
 *  ("object" is the oracle); each must fail with that kernel's typed
 *  restore error. */
void
everyOutOfRangeIndexIsATypedError(const char *kernel)
{
    test::OracleKernel oracle(std::string(kernel) == "object");
    NocParams p = meshParams();
    const std::int64_t V = p.totalVcs();      // 6
    const std::int64_t W = p.vcs_per_vnet;    // 2
    const std::int64_t D = p.buffer_depth;    // 4
    const BadField cases[] = {
        {"ivc_state", 3},
        {"ivc_state", 255},
        {"ivc_out_port", 5},
        {"ivc_out_port", -2},
        {"ivc_out_vc", V},
        {"ivc_out_vc", -7},
        {"ivc_out_class", 1}, // a mesh has one VC class
        {"ivc_out_dim", 3},
        {"fifo_size", D + 1},
        {"ip_sa_rr", V},
        {"ip_sa_rr", 64}, // a full-width shift of the request word
        {"ip_sa_rr", -1},
        {"op_sa_rr", 5},
        {"op_sa_rr", -1},
        {"op_va_rr", W},
        {"op_va_rr", -1},
        {"nic_va_rr", W},
        {"nic_rr_vnet", num_vnets},
        {"nic_rr_vnet", -1},
        {"nicq_cur_vc", V},
        {"nicq_cur_vc", -2},
        {"link_flit_vc", V},
        {"link_flit_vc", -1},
        {"link_flit_vnet", num_vnets},
        {"fifo_flit_vnet", num_vnets},
        {"fifo_flit_vc_class", 2},
        {"nicq_flit_vnet", 7},
        {"credit_vc", V},
        {"credit_vc", -1},
    };
    std::string bytes = midRunArchive(p);
    for (const BadField &c : cases) {
        Corrupter corrupt(p, c.field, c.value);
        std::string bad = corrupt.run(bytes);
        ASSERT_TRUE(corrupt.hit())
            << c.field << ": the archive has no such value to corrupt";
        EXPECT_SIM_ERROR(restoreInto(p, bad),
                         std::string(kernel) + " restore")
            << kernel << ": " << c.field << " = " << c.value;
    }
}

TEST(SoaRestore, EveryOutOfRangeIndexIsATypedError)
{
    for (const char *kernel : {"soa", "object"})
        everyOutOfRangeIndexIsATypedError(kernel);
}

TEST(SoaRestore, ActiveVcWithoutAnOutputIsATypedError)
{
    // An active VC must hold an output port and VC; -1 is only legal
    // for idle and need-VA VCs. In an empty network every VC is idle;
    // corrupt the first one into "active" while its archived output
    // stays -1.
    const NocParams p = meshParams();
    Corrupter corrupt(p, "ivc_state", 2);
    std::string bad = corrupt.run(midRunArchive(p, 0));
    ASSERT_TRUE(corrupt.hit());
    EXPECT_SIM_ERROR(restoreInto(p, bad), "VC output port");
}

/** The geometry limits raise SimError(Config) stating the limit
 *  (@p limit is a substring of the message). */
::testing::AssertionResult
configErrorStating(const std::string &limit,
                   const std::function<void()> &fn)
{
    logging::ThrowOnError guard;
    try {
        fn();
    } catch (const SimError &e) {
        if (e.kind() != ErrorKind::Config)
            return ::testing::AssertionFailure()
                   << "wrong kind: " << e.what();
        if (std::string(e.what()).find(limit) == std::string::npos)
            return ::testing::AssertionFailure()
                   << "limit '" << limit << "' not stated: " << e.what();
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "no SimError was thrown";
}

TEST(SoaGeometry, TooManyVcsPerPortRejected)
{
    // 3 vnets x 22 VCs = 66 VCs per port: past one 64-bit request
    // word. NocParams::validate() refuses it, so no network builds.
    NocParams p;
    p.columns = 2;
    p.rows = 2;
    p.vcs_per_vnet = 22;
    EXPECT_TRUE(configErrorStating("at most 64 VCs per port",
                                   [&] { p.validate(); }));
    EXPECT_TRUE(configErrorStating("at most 64 VCs per port", [&] {
        Simulation sim;
        CycleNetwork net(sim, "net", p);
    }));

    // The widest geometry that fits (63 VCs) builds.
    p.vcs_per_vnet = 21;
    Simulation sim;
    CycleNetwork net(sim, "net", p);
}

TEST(SoaGeometry, TooDeepBuffersRejected)
{
    NocParams p;
    p.columns = 2;
    p.rows = 2;
    p.buffer_depth = NocParams::max_buffer_depth + 1;
    EXPECT_TRUE(configErrorStating("buffer_depth must be <= 65535", [&] {
        Simulation sim;
        CycleNetwork net(sim, "net", p);
    }));
}

TEST(SoaGeometry, TooManyPortsRejected)
{
    // Mesh and torus routers have exactly the 5 ports the occupancy
    // layout holds, so the port limit is checked on the geometry
    // alone.
    using kernel::SoaCycleFabric;
    EXPECT_TRUE(configErrorStating("at most 5 ports", [] {
        SoaCycleFabric::checkPorts("hypercube",
                                   SoaCycleFabric::max_ports + 1);
    }));
    logging::ThrowOnError guard;
    SoaCycleFabric::checkPorts("mesh", SoaCycleFabric::max_ports);
}

} // namespace
