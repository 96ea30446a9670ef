/**
 * @file
 * Point-to-point channel between routers (or a router and its network
 * interface): a forward flit pipeline and a reverse credit pipeline.
 *
 * Phase discipline (see CycleNetwork): pushes happen in the compute
 * phase of the sending component, pops in the commit phase of the
 * receiving component, so a link is never touched concurrently.
 */

#ifndef RASIM_NOC_LINK_HH
#define RASIM_NOC_LINK_HH

#include <cstdint>
#include <deque>
#include <utility>

#include "noc/packet.hh"
#include "sim/types.hh"

namespace rasim
{
namespace noc
{

class Link
{
  public:
    explicit Link(int latency) : latency_(latency) {}

    /** Send a flit during compute(now); poppable at commit(now +
     *  latency - 1), i.e. visible to the receiver at now + latency. */
    void
    sendFlit(Cycle now, Flit f)
    {
        flits_.emplace_back(now + latency_ - 1, std::move(f));
    }

    /** True when a flit can be popped at commit(now). */
    bool
    flitReady(Cycle now) const
    {
        return !flits_.empty() && flits_.front().first <= now;
    }

    Flit
    popFlit()
    {
        Flit f = std::move(flits_.front().second);
        flits_.pop_front();
        return f;
    }

    /** Return one credit for @p vc to the sender (reverse direction). */
    void
    sendCredit(Cycle now, int vc)
    {
        credits_.emplace_back(now + latency_ - 1,
                              static_cast<std::int16_t>(vc));
    }

    bool
    creditReady(Cycle now) const
    {
        return !credits_.empty() && credits_.front().first <= now;
    }

    int
    popCredit()
    {
        int vc = credits_.front().second;
        credits_.pop_front();
        return vc;
    }

    bool
    empty() const
    {
        return flits_.empty() && credits_.empty();
    }

    std::size_t flitsInFlight() const { return flits_.size(); }
    int latency() const { return latency_; }

    void
    collectPackets(PacketTable &table) const
    {
        for (const auto &[cycle, flit] : flits_)
            collectPacket(table, flit.pkt);
    }

    void
    save(ArchiveWriter &aw) const
    {
        aw.beginSection("link");
        aw.putU64(flits_.size());
        for (const auto &[cycle, flit] : flits_) {
            aw.putU64(cycle);
            saveFlit(aw, flit);
        }
        aw.putU64(credits_.size());
        for (const auto &[cycle, vc] : credits_) {
            aw.putU64(cycle);
            aw.putI64(vc);
        }
        aw.endSection();
    }

    /** @p id names the link in errors; @p num_vcs bounds the VC of
     *  every flit and credit read back. */
    void
    restore(ArchiveReader &ar, const PacketTable &table, int vc_classes,
            int num_vcs, std::size_t id)
    {
        ar.expectSection("link");
        flits_.clear();
        std::uint64_t n_flits = ar.getU64();
        for (std::uint64_t i = 0; i < n_flits; ++i) {
            Cycle cycle = ar.getU64();
            flits_.emplace_back(
                cycle, restoreCheckedFlit(ar, table, vc_classes, num_vcs,
                                          "object", "link", id));
        }
        credits_.clear();
        std::uint64_t n_credits = ar.getU64();
        for (std::uint64_t i = 0; i < n_credits; ++i) {
            Cycle cycle = ar.getU64();
            credits_.emplace_back(
                cycle, static_cast<std::int16_t>(
                           checkRestored(ar.getI64(), 0, num_vcs,
                                         "credit VC", "object", "link",
                                         id)));
        }
        ar.endSection();
    }

  private:
    int latency_;
    std::deque<std::pair<Cycle, Flit>> flits_;
    std::deque<std::pair<Cycle, std::int16_t>> credits_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_LINK_HH
