#include "noc/packet.hh"

#include <sstream>

#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

const char *
toString(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Request:
        return "Request";
      case MsgClass::Forward:
        return "Forward";
      case MsgClass::Response:
        return "Response";
    }
    return "Unknown";
}

std::string
Packet::toString() const
{
    std::ostringstream os;
    os << "pkt" << id << " " << src << "->" << dst << " "
       << noc::toString(cls) << " " << size_bytes << "B";
    return os.str();
}

Pool<Packet> &
packetPool()
{
    // Immortal by design: handles held by function-local statics or
    // late-destroyed globals must never outlive the pool, so the pool
    // is simply never destroyed (still reachable, so leak-clean).
    static Pool<Packet> *pool = new Pool<Packet>("noc.packet");
    return *pool;
}

PacketPtr
makePacket(PacketId id, NodeId src, NodeId dst, MsgClass cls,
           std::uint32_t size_bytes, Tick inject_tick,
           std::uint64_t context)
{
    PacketPtr pkt = packetPool().allocate();
    pkt->id = id;
    pkt->src = src;
    pkt->dst = dst;
    pkt->cls = cls;
    pkt->size_bytes = size_bytes;
    pkt->inject_tick = inject_tick;
    pkt->context = context;
    return pkt;
}

PacketPtr
clonePacket(const Packet &src)
{
    return packetPool().allocate(src);
}

std::uint32_t
flitsForBytes(std::uint32_t size_bytes, std::uint32_t flit_bytes)
{
    if (size_bytes == 0)
        return 1;
    return (size_bytes + flit_bytes - 1) / flit_bytes;
}

void
collectPacket(PacketTable &table, const PacketPtr &pkt)
{
    if (pkt)
        table.emplace(pkt->id, pkt);
}

void
savePacketTable(ArchiveWriter &aw, const PacketTable &table)
{
    aw.beginSection("pkts");
    aw.putU64(table.size());
    for (const auto &[id, pkt] : table)
        savePacket(aw, *pkt);
    aw.endSection();
}

PacketTable
restorePacketTable(ArchiveReader &ar)
{
    ar.expectSection("pkts");
    PacketTable table;
    std::uint64_t n = ar.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketPtr pkt = restorePacket(ar);
        table.emplace(pkt->id, pkt);
    }
    ar.endSection();
    return table;
}

void
saveFlit(ArchiveWriter &aw, const Flit &flit)
{
    aw.putU8(static_cast<std::uint8_t>(flit.type));
    aw.putU8(flit.vnet);
    aw.putU8(static_cast<std::uint8_t>(flit.vc));
    aw.putU8(flit.vc_class);
    aw.putU8(flit.last_dim);
    aw.putU32(flit.seq);
    aw.putU64(flit.ready_cycle);
    aw.putU64(flit.pkt ? flit.pkt->id : 0);
    aw.putBool(static_cast<bool>(flit.pkt));
}

Flit
restoreFlit(ArchiveReader &ar, const PacketTable &table)
{
    Flit flit;
    flit.type = static_cast<Flit::Type>(ar.getU8());
    flit.vnet = ar.getU8();
    flit.vc = static_cast<std::int8_t>(ar.getU8());
    flit.vc_class = ar.getU8();
    flit.last_dim = ar.getU8();
    flit.seq = static_cast<std::uint16_t>(ar.getU32());
    flit.ready_cycle = ar.getU64();
    PacketId id = ar.getU64();
    if (ar.getBool())
        flit.pkt = table.at(id);
    return flit;
}

std::int64_t
checkRestored(std::int64_t v, std::int64_t lo, std::int64_t hi,
              const char *what, const char *kernel, const char *unit,
              std::size_t idx)
{
    if (v < lo || v >= hi)
        panic(kernel, " restore: ", unit, " ", idx, ": ", what, " ", v,
              " outside [", lo, ", ", hi, ")");
    return v;
}

void
checkRestoredPackets(const PacketTable &table, int num_nodes,
                     const char *kernel)
{
    for (const auto &[id, pkt] : table) {
        if (pkt->src >= static_cast<NodeId>(num_nodes) ||
            pkt->dst >= static_cast<NodeId>(num_nodes))
            panic(kernel, " restore: packet ", id, " names a node "
                  "outside the ", num_nodes, "-node network");
        checkRestored(static_cast<int>(pkt->cls), 0, num_vnets,
                      "message class", kernel, "packet", id);
    }
}

Flit
restoreCheckedFlit(ArchiveReader &ar, const PacketTable &table,
                   int vc_classes, int link_vcs, const char *kernel,
                   const char *unit, std::size_t idx)
{
    Flit f = restoreFlit(ar, table);
    auto in = [&](std::int64_t v, std::int64_t hi, const char *what) {
        checkRestored(v, 0, hi, what, kernel, unit, idx);
    };
    in(static_cast<int>(f.type), 4, "flit type");
    in(f.vnet, num_vnets, "flit vnet");
    in(f.vc_class, vc_classes, "flit VC class");
    in(f.last_dim, 3, "flit dimension");
    if (link_vcs > 0)
        in(f.vc, link_vcs, "flit VC");
    if (!f.pkt)
        panic(kernel, " restore: ", unit, " ", idx,
              ": flit without a packet");
    return f;
}

} // namespace noc
} // namespace rasim
