/**
 * @file
 * Network packets and flits. A Packet is the unit the full system
 * injects and receives; inside the cycle-level network it is carried
 * as a wormhole of Flits.
 */

#ifndef RASIM_NOC_PACKET_HH
#define RASIM_NOC_PACKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/flat_map.hh"
#include "sim/pool.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace rasim
{
namespace noc
{

/**
 * Message class, mapped one-to-one onto virtual networks. Keeping
 * requests, forwards/invalidations and responses on disjoint VC pools
 * makes the directory protocol deadlock-free on the NoC.
 */
enum class MsgClass : std::uint8_t
{
    Request = 0,  ///< cache miss requests (small control packets)
    Forward = 1,  ///< directory forwards / invalidations
    Response = 2, ///< data and acknowledgement responses
};

/** Number of virtual networks (one per MsgClass). */
constexpr int num_vnets = 3;

/** Render a message class for logs. */
const char *toString(MsgClass cls);

/**
 * The unit of transfer seen by the rest of the system. Created by the
 * injecting component, handed to a NetworkModel, and returned through
 * the delivery handler with the timing fields filled in.
 */
struct Packet
{
    PacketId id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    MsgClass cls = MsgClass::Request;
    std::uint32_t size_bytes = 8;

    /** Tick the sender handed the packet to the network. */
    Tick inject_tick = 0;
    /** Tick the head flit left the source network interface. */
    Tick enter_tick = 0;
    /** Tick the packet was fully received (set by the network). */
    Tick deliver_tick = 0;
    /** Number of router-to-router hops taken (set by the network). */
    std::uint32_t hops = 0;

    /** Opaque cookie for the injecting subsystem (e.g. MSHR index). */
    std::uint64_t context = 0;

    /** Total latency from injection to delivery. */
    Tick latency() const { return deliver_tick - inject_tick; }
    /** Latency inside the network fabric only. */
    Tick networkLatency() const { return deliver_tick - enter_tick; }
    /** Source-side queueing before entering the fabric. */
    Tick queueLatency() const { return enter_tick - inject_tick; }

    std::string toString() const;
};

/**
 * Packets live on a process-wide slab pool; PacketPtr is the
 * refcounted pooled handle (drop-in for the shared_ptr it replaced).
 * The last handle returns the slot to the pool, exactly once.
 */
using PacketPtr = PoolPtr<Packet>;

/** The process-wide packet pool (also feeds the bench/test stats). */
Pool<Packet> &packetPool();

/** Convenience factory assigning a fresh id from a caller counter. */
PacketPtr makePacket(PacketId id, NodeId src, NodeId dst, MsgClass cls,
                     std::uint32_t size_bytes, Tick inject_tick,
                     std::uint64_t context = 0);

/** Pool-allocated field-for-field copy of @p src. */
PacketPtr clonePacket(const Packet &src);

/**
 * One flow-control unit of a packet. Single-flit packets are marked
 * HeadTail.
 */
struct Flit
{
    enum class Type : std::uint8_t { Head, Body, Tail, HeadTail };

    Type type = Type::HeadTail;
    /** Virtual network (from the packet's message class). */
    std::uint8_t vnet = 0;
    /** VC within the vnet on the current link; -1 before allocation. */
    std::int8_t vc = -1;
    /**
     * Dateline VC-class bit for torus deadlock avoidance: flits that
     * crossed the wrap-around link in the current dimension must use
     * the upper half of the VC pool.
     */
    std::uint8_t vc_class = 0;
    /**
     * Dimension of the last traversed link (0 = X, 1 = Y, 2 = none);
     * the dateline class resets when the packet changes dimension.
     */
    std::uint8_t last_dim = 2;
    /** Flit index within the packet (0 = head). */
    std::uint16_t seq = 0;
    /** First cycle the flit may compete for switch allocation. */
    Cycle ready_cycle = 0;
    /** Owning packet (destination, bookkeeping, timing). */
    PacketPtr pkt;

    bool isHead() const
    {
        return type == Type::Head || type == Type::HeadTail;
    }

    bool isTail() const
    {
        return type == Type::Tail || type == Type::HeadTail;
    }
};

/** Flits a packet occupies given the link width. */
std::uint32_t flitsForBytes(std::uint32_t size_bytes,
                            std::uint32_t flit_bytes);

/** Checkpoint a packet's full field set. Inline so users outside the
 *  noc library (e.g. the fault injector) need no link dependency. */
inline void
savePacket(ArchiveWriter &aw, const Packet &pkt)
{
    aw.putU64(pkt.id);
    aw.putU32(pkt.src);
    aw.putU32(pkt.dst);
    aw.putU8(static_cast<std::uint8_t>(pkt.cls));
    aw.putU32(pkt.size_bytes);
    aw.putU64(pkt.inject_tick);
    aw.putU64(pkt.enter_tick);
    aw.putU64(pkt.deliver_tick);
    aw.putU32(pkt.hops);
    aw.putU64(pkt.context);
}

inline PacketPtr
restorePacket(ArchiveReader &ar)
{
    PacketPtr pkt = packetPool().allocate();
    pkt->id = ar.getU64();
    pkt->src = ar.getU32();
    pkt->dst = ar.getU32();
    pkt->cls = static_cast<MsgClass>(ar.getU8());
    pkt->size_bytes = ar.getU32();
    pkt->inject_tick = ar.getU64();
    pkt->enter_tick = ar.getU64();
    pkt->deliver_tick = ar.getU64();
    pkt->hops = ar.getU32();
    pkt->context = ar.getU64();
    return pkt;
}

/**
 * Identity map for checkpointing flits: every flit of a packet shares
 * one Packet object mutated en route, so archives store each packet
 * once (keyed and ordered by id) and flits reference it by id.
 * FlatMap iterates in ascending key order, so archives written by
 * walking the table are byte-identical to the std::map era.
 */
using PacketTable = FlatMap<PacketId, PacketPtr>;

/** Collect @p pkt into @p table (id collisions must agree). */
void collectPacket(PacketTable &table, const PacketPtr &pkt);

void savePacketTable(ArchiveWriter &aw, const PacketTable &table);
PacketTable restorePacketTable(ArchiveReader &ar);

/** Checkpoint a flit; the owning packet is stored as an id. */
void saveFlit(ArchiveWriter &aw, const Flit &flit);
Flit restoreFlit(ArchiveReader &ar, const PacketTable &table);

/** @name Restore-time range checks
 * A kernel indexes its arrays with values read back from a
 * checkpoint, so each one is checked first: a corrupt image ends in
 * panic() (a typed SimError under ThrowOnError) that names the
 * @p kernel, the @p unit and index @p idx the value belongs to and
 * the field, never in memory outside the arrays. */
/// @{
/** @p v unless lo <= v < hi. */
std::int64_t checkRestored(std::int64_t v, std::int64_t lo,
                           std::int64_t hi, const char *what,
                           const char *kernel, const char *unit,
                           std::size_t idx);
/** Every packet's nodes below @p num_nodes and class below
 *  num_vnets. */
void checkRestoredPackets(const PacketTable &table, int num_nodes,
                          const char *kernel);
/** restoreFlit() with the flit's type, vnet, VC class (below
 *  @p vc_classes) and dimension checked, and a packet required. A
 *  flit on a link carries the VC it will be written into: with
 *  @p link_vcs > 0 that VC must lie below it. */
Flit restoreCheckedFlit(ArchiveReader &ar, const PacketTable &table,
                        int vc_classes, int link_vcs,
                        const char *kernel, const char *unit,
                        std::size_t idx);
/// @}

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_PACKET_HH
