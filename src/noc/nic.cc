#include "noc/nic.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

Nic::Nic(stats::Group *parent, NodeId node, const NocParams &params)
    : stats::Group(parent, "nic" + std::to_string(node)),
      flitsSent(this, "flits_sent", "flits injected into the router"),
      flitsReceived(this, "flits_received", "flits ejected to this NIC"),
      node_(node), params_(params)
{
    inj_vcs_.resize(params_.totalVcs());
}

void
Nic::connectInjection(Link *link, int router_buffer_depth)
{
    inj_ = link;
    for (auto &vc : inj_vcs_)
        vc.credits = router_buffer_depth;
}

void
Nic::connectEjection(Link *link)
{
    ej_ = link;
}

void
Nic::enqueue(const PacketPtr &pkt, Cycle now)
{
    (void)now;
    std::uint32_t nflits = params_.flitsPerPacket(pkt->size_bytes);
    auto vnet = static_cast<std::uint8_t>(pkt->cls);
    InjectQueue &q = queues_[vnet];
    for (std::uint32_t i = 0; i < nflits; ++i) {
        Flit f;
        if (nflits == 1)
            f.type = Flit::Type::HeadTail;
        else if (i == 0)
            f.type = Flit::Type::Head;
        else if (i == nflits - 1)
            f.type = Flit::Type::Tail;
        else
            f.type = Flit::Type::Body;
        f.vnet = vnet;
        f.seq = static_cast<std::uint16_t>(i);
        f.pkt = pkt;
        q.fifo.push_back(std::move(f));
    }
    queued_flits_ += nflits;
}

void
Nic::compute(Cycle now)
{
    // Credits from the router (input buffer slots freed).
    while (inj_->creditReady(now))
        inj_vcs_[inj_->popCredit()].credits++;

    // Inject at most one flit per cycle, round-robin over vnets.
    for (int k = 0; k < num_vnets; ++k) {
        int v = (rr_vnet_ + k) % num_vnets;
        InjectQueue &q = queues_[v];
        if (q.fifo.empty())
            continue;
        Flit &front = q.fifo.front();
        int vc = q.cur_vc;
        if (front.isHead()) {
            // Allocate a fresh VC (class 0: datelines apply only to
            // router-to-router hops).
            int &rr = va_rr_[v];
            vc = -1;
            for (int i = 0; i < params_.vcs_per_vnet; ++i) {
                int cand = params_.vcIndex(
                    v, 0, (rr + i) % params_.vcs_per_vnet);
                if (!inj_vcs_[cand].busy && inj_vcs_[cand].credits > 0) {
                    vc = cand;
                    rr = ((rr + i) + 1) % params_.vcs_per_vnet;
                    break;
                }
            }
            if (vc < 0)
                continue; // no VC or no credit: try another vnet
            inj_vcs_[vc].busy = true;
            q.cur_vc = vc;
            front.pkt->enter_tick = now;
        } else if (vc < 0 || inj_vcs_[vc].credits <= 0) {
            continue; // streaming body flits but out of credits
        }

        Flit f = std::move(q.fifo.front());
        q.fifo.pop_front();
        --queued_flits_;
        f.vc = static_cast<std::int8_t>(vc);
        f.vc_class = 0;
        f.ready_cycle = now;
        inj_vcs_[vc].credits--;
        if (f.isTail()) {
            inj_vcs_[vc].busy = false;
            q.cur_vc = -1;
        }
        inj_->sendFlit(now, std::move(f));
        ++flitsSent;
        rr_vnet_ = (v + 1) % num_vnets;
        break;
    }
}

void
Nic::commit(Cycle now)
{
    while (ej_->flitReady(now)) {
        Flit f = ej_->popFlit();
        // The ejection buffer drains instantly: return the credit for
        // the slot right away.
        ej_->sendCredit(now, f.vc);
        ++flitsReceived;
        PacketPtr pkt = f.pkt;
        std::uint32_t want = params_.flitsPerPacket(pkt->size_bytes);
        std::uint32_t got = ++rx_flits_[pkt->id];
        if (got == want) {
            rx_flits_.erase(pkt->id);
            pkt->deliver_tick = now + 1;
            completed_.push_back(std::move(pkt));
        } else if (got > want) {
            panic("nic", node_, ": duplicate flits for packet ",
                  pkt->id);
        }
    }
}

bool
Nic::idle() const
{
    return queued_flits_ == 0 && rx_flits_.empty() && completed_.empty();
}

void
Nic::collectPackets(PacketTable &table) const
{
    for (const auto &q : queues_)
        for (const Flit &flit : q.fifo)
            collectPacket(table, flit.pkt);
}

void
Nic::save(ArchiveWriter &aw) const
{
    if (!completed_.empty())
        panic("nic", node_,
              ": checkpoint with undrained completions");
    aw.beginSection("nic");
    for (const auto &q : queues_) {
        aw.putI64(q.cur_vc);
        aw.putU64(q.fifo.size());
        for (const Flit &flit : q.fifo)
            saveFlit(aw, flit);
    }
    for (const auto &vc : inj_vcs_) {
        aw.putBool(vc.busy);
        aw.putI64(vc.credits);
    }
    for (int rr : va_rr_)
        aw.putI64(rr);
    aw.putI64(rr_vnet_);
    aw.putU64(queued_flits_);

    // FlatMap iterates in ascending id order — same bytes as the
    // sort-before-save loop this replaces.
    aw.putU64(rx_flits_.size());
    for (const auto &[id, count] : rx_flits_) {
        aw.putU64(id);
        aw.putU32(count);
    }
    aw.endSection();
}

void
Nic::restore(ArchiveReader &ar, const PacketTable &table)
{
    auto in = [this](std::int64_t v, std::int64_t lo, std::int64_t hi,
                     const char *what) {
        return static_cast<int>(
            checkRestored(v, lo, hi, what, "object", "nic", node_));
    };
    ar.expectSection("nic");
    for (auto &q : queues_) {
        q.cur_vc = in(ar.getI64(), -1, params_.totalVcs(), "current VC");
        q.fifo.clear();
        std::uint64_t n = ar.getU64();
        for (std::uint64_t i = 0; i < n; ++i)
            q.fifo.push_back(restoreCheckedFlit(
                ar, table, params_.vc_classes, 0, "object", "nic", node_));
    }
    for (auto &vc : inj_vcs_) {
        vc.busy = ar.getBool();
        vc.credits = static_cast<int>(ar.getI64());
    }
    for (int &rr : va_rr_)
        rr = in(ar.getI64(), 0, params_.vcs_per_vnet, "VA cursor");
    rr_vnet_ = in(ar.getI64(), 0, num_vnets, "vnet cursor");
    queued_flits_ = ar.getU64();

    rx_flits_.clear();
    std::uint64_t n_rx = ar.getU64();
    for (std::uint64_t i = 0; i < n_rx; ++i) {
        PacketId id = ar.getU64();
        rx_flits_[id] = ar.getU32();
    }
    completed_.clear();
    ar.endSection();
}

} // namespace noc
} // namespace rasim
