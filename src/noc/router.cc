#include "noc/router.hh"

#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

Router::Router(stats::Group *parent, int id, const NocParams &params,
               const Topology &topo, const RoutingAlgorithm &routing)
    : stats::Group(parent, "router" + std::to_string(id)),
      flitsRouted(this, "flits_routed",
                  "flits moved through the crossbar"),
      bufferWrites(this, "buffer_writes",
                   "flits written into input buffers"),
      linkTraversals(this, "link_traversals",
                     "flits sent over inter-router links"),
      id_(id), params_(params), topo_(topo), routing_(routing)
{
    int nports = topo_.numPorts();
    int nvcs = params_.totalVcs();
    inputs_.resize(nports);
    outputs_.resize(nports);
    for (int p = 0; p < nports; ++p) {
        inputs_[p].vcs.resize(nvcs);
        outputs_[p].vcs.resize(nvcs);
        outputs_[p].va_rr.assign(num_vnets * params_.vc_classes, 0);
    }
}

void
Router::connectInput(int port, Link *link)
{
    inputs_[port].in = link;
}

void
Router::connectOutput(int port, Link *link, int downstream_depth)
{
    outputs_[port].out = link;
    for (auto &ovc : outputs_[port].vcs)
        ovc.credits = downstream_depth;
}

std::uint8_t
Router::dimOf(int port)
{
    switch (port) {
      case port_east:
      case port_west:
        return 0;
      case port_north:
      case port_south:
        return 1;
      default:
        return 2;
    }
}

std::uint8_t
Router::nextVcClass(const Flit &head, int out_port) const
{
    if (params_.vc_classes == 1 || out_port == port_local)
        return 0;
    std::uint8_t dim = dimOf(out_port);
    // The dateline class is per dimension: reset on dimension change,
    // set after crossing the wrap link of the current dimension.
    std::uint8_t cls = (dim == head.last_dim) ? head.vc_class : 0;
    if (topo_.isWrapLink(id_, out_port))
        cls = 1;
    return cls;
}

int
Router::selectOutputPort(const Flit &head, const std::vector<int> &cand,
                         int in_port) const
{
    if (cand.size() == 1)
        return cand[0];
    // Adaptive selection: most free credits in the pool the packet
    // would use; ties break towards the first candidate the routing
    // algorithm listed (its static preference).
    int best = -1;
    int best_credits = -1;
    for (int port : cand) {
        if (port == in_port)
            continue; // no U-turns
        int cls = nextVcClass(head, port);
        int credits = 0;
        for (int i = 0; i < params_.vcs_per_vnet; ++i) {
            int vc = params_.vcIndex(head.vnet, cls, i);
            const OutVc &ovc = outputs_[port].vcs[vc];
            if (!ovc.busy)
                credits += ovc.credits;
        }
        if (credits > best_credits) {
            best_credits = credits;
            best = port;
        }
    }
    return best >= 0 ? best : cand[0];
}

int
Router::allocateOutVc(int out_port, int vnet, int cls)
{
    OutputPort &op = outputs_[out_port];
    int &rr = op.va_rr[vnet * params_.vc_classes + cls];
    for (int k = 0; k < params_.vcs_per_vnet; ++k) {
        int i = (rr + k) % params_.vcs_per_vnet;
        int vc = params_.vcIndex(vnet, cls, i);
        if (!op.vcs[vc].busy) {
            op.vcs[vc].busy = true;
            rr = (i + 1) % params_.vcs_per_vnet;
            return vc;
        }
    }
    return -1;
}

void
Router::vcAllocation(Cycle now)
{
    int nports = topo_.numPorts();
    // Rotate the starting input port each cycle so no port enjoys
    // permanent priority for fresh output VCs.
    int start = static_cast<int>(now % nports);
    for (int k = 0; k < nports; ++k) {
        InputPort &ip = inputs_[(start + k) % nports];
        for (auto &ivc : ip.vcs) {
            if (ivc.state != VcState::NeedVA)
                continue;
            if (ivc.fifo.empty())
                panic("router", id_, ": NeedVA VC with empty fifo");
            const Flit &head = ivc.fifo.front();
            if (!head.isHead())
                panic("router", id_, ": NeedVA VC fronted by body flit");
            route_scratch_.clear();
            routing_.route(topo_, id_, head.pkt->dst, route_scratch_);
            int out_port = selectOutputPort(head, route_scratch_,
                                            (start + k) % nports);
            std::uint8_t cls = nextVcClass(head, out_port);
            int out_vc = allocateOutVc(out_port, head.vnet, cls);
            if (out_vc < 0)
                continue; // retry next cycle
            ivc.state = VcState::Active;
            ivc.out_port = out_port;
            ivc.out_vc = out_vc;
            ivc.out_class = cls;
            ivc.out_dim = dimOf(out_port);
        }
    }
}

void
Router::switchAllocation(Cycle now)
{
    int nports = topo_.numPorts();
    int nvcs = params_.totalVcs();

    // Input stage: each input port nominates one ready VC.
    // winner_vc[p] is the nominated VC index at input port p.
    std::vector<int> winner_vc(nports, -1);
    for (int p = 0; p < nports; ++p) {
        InputPort &ip = inputs_[p];
        for (int k = 0; k < nvcs; ++k) {
            int v = (ip.sa_rr + k) % nvcs;
            InputVc &ivc = ip.vcs[v];
            if (ivc.state != VcState::Active || ivc.fifo.empty())
                continue;
            const Flit &f = ivc.fifo.front();
            if (f.ready_cycle > now)
                continue;
            if (outputs_[ivc.out_port].vcs[ivc.out_vc].credits <= 0)
                continue;
            winner_vc[p] = v;
            break;
        }
    }

    // Output stage: each output port grants one input port.
    for (int op = 0; op < nports; ++op) {
        OutputPort &out = outputs_[op];
        if (!out.out)
            continue;
        int granted = -1;
        for (int k = 0; k < nports; ++k) {
            int p = (out.sa_rr + k) % nports;
            if (winner_vc[p] < 0)
                continue;
            if (inputs_[p].vcs[winner_vc[p]].out_port != op)
                continue;
            granted = p;
            break;
        }
        if (granted < 0)
            continue;
        out.sa_rr = (granted + 1) % nports;

        // Switch + link traversal for the granted flit.
        InputPort &ip = inputs_[granted];
        InputVc &ivc = ip.vcs[winner_vc[granted]];
        ip.sa_rr = (winner_vc[granted] + 1) % nvcs;
        Flit f = std::move(ivc.fifo.front());
        ivc.fifo.pop_front();
        f.vc = static_cast<std::int8_t>(ivc.out_vc);
        f.vc_class = ivc.out_class;
        if (op != port_local) {
            f.last_dim = ivc.out_dim;
            ++linkTraversals;
            if (f.isHead())
                ++f.pkt->hops;
        }
        out.vcs[ivc.out_vc].credits--;
        ++flitsRouted;

        bool was_tail = f.isTail();
        out.out->sendFlit(now, std::move(f));

        // Return the freed buffer slot to the upstream sender.
        if (ip.in)
            ip.in->sendCredit(now, winner_vc[granted]);

        if (was_tail) {
            out.vcs[ivc.out_vc].busy = false;
            ivc.out_port = -1;
            ivc.out_vc = -1;
            if (ivc.fifo.empty()) {
                ivc.state = VcState::Idle;
            } else {
                if (!ivc.fifo.front().isHead())
                    panic("router", id_,
                          ": tail departed but next flit is not a head");
                ivc.state = VcState::NeedVA;
            }
        }

        winner_vc[granted] = -1; // one grant per input port per cycle
    }
}

void
Router::compute(Cycle now)
{
    vcAllocation(now);
    switchAllocation(now);
}

void
Router::commit(Cycle now)
{
    int nports = topo_.numPorts();
    for (int p = 0; p < nports; ++p) {
        InputPort &ip = inputs_[p];
        if (!ip.in)
            continue;
        while (ip.in->flitReady(now)) {
            Flit f = ip.in->popFlit();
            if (f.vc < 0 || f.vc >= params_.totalVcs())
                panic("router", id_, ": flit with unallocated VC");
            InputVc &ivc = ip.vcs[f.vc];
            if (static_cast<int>(ivc.fifo.size()) >=
                params_.buffer_depth) {
                panic("router", id_, " port ", portName(p), " vc ",
                      static_cast<int>(f.vc),
                      ": buffer overflow (credit protocol violated)");
            }
            f.ready_cycle = now + params_.pipeline_stages;
            ++bufferWrites;
            bool was_empty = ivc.fifo.empty();
            bool is_head = f.isHead();
            ivc.fifo.push_back(std::move(f));
            if (ivc.state == VcState::Idle) {
                if (!was_empty || !is_head)
                    panic("router", id_,
                          ": idle VC must receive a head flit first");
                ivc.state = VcState::NeedVA;
            }
        }
    }
    for (int p = 0; p < nports; ++p) {
        OutputPort &out = outputs_[p];
        if (!out.out)
            continue;
        while (out.out->creditReady(now))
            out.vcs[out.out->popCredit()].credits++;
    }
}

std::size_t
Router::bufferedFlits() const
{
    std::size_t n = 0;
    for (const auto &ip : inputs_)
        for (const auto &ivc : ip.vcs)
            n += ivc.fifo.size();
    return n;
}

int
Router::creditsAt(int port, int vc) const
{
    return outputs_[port].vcs[vc].credits;
}

bool
Router::outVcBusy(int port, int vc) const
{
    return outputs_[port].vcs[vc].busy;
}

void
Router::collectPackets(PacketTable &table) const
{
    for (const auto &ip : inputs_)
        for (const auto &ivc : ip.vcs)
            for (const Flit &flit : ivc.fifo)
                collectPacket(table, flit.pkt);
}

void
Router::save(ArchiveWriter &aw) const
{
    aw.beginSection("router");
    for (const auto &ip : inputs_) {
        aw.putI64(ip.sa_rr);
        for (const auto &ivc : ip.vcs) {
            aw.putU8(static_cast<std::uint8_t>(ivc.state));
            aw.putI64(ivc.out_port);
            aw.putI64(ivc.out_vc);
            aw.putU8(ivc.out_class);
            aw.putU8(ivc.out_dim);
            aw.putU64(ivc.fifo.size());
            for (const Flit &flit : ivc.fifo)
                saveFlit(aw, flit);
        }
    }
    for (const auto &op : outputs_) {
        aw.putI64(op.sa_rr);
        aw.putU64(op.va_rr.size());
        for (int rr : op.va_rr)
            aw.putI64(rr);
        for (const auto &ovc : op.vcs) {
            aw.putBool(ovc.busy);
            aw.putI64(ovc.credits);
        }
    }
    aw.endSection();
}

void
Router::restore(ArchiveReader &ar, const PacketTable &table)
{
    const int nports = topo_.numPorts();
    const int nvcs = params_.totalVcs();
    auto in = [this](std::int64_t v, std::int64_t lo, std::int64_t hi,
                     const char *what) {
        return static_cast<int>(
            checkRestored(v, lo, hi, what, "object", "router", id_));
    };
    ar.expectSection("router");
    for (auto &ip : inputs_) {
        ip.sa_rr = in(ar.getI64(), 0, nvcs, "SA cursor");
        for (auto &ivc : ip.vcs) {
            ivc.state = static_cast<VcState>(
                in(ar.getU8(), 0, 3, "VC state"));
            // Idle and need-VA VCs hold no output VC (-1); an active
            // one holds a real one.
            int lo = ivc.state == VcState::Active ? 0 : -1;
            ivc.out_port = in(ar.getI64(), lo, nports, "VC output port");
            ivc.out_vc = in(ar.getI64(), lo, nvcs, "VC output VC");
            ivc.out_class = static_cast<std::uint8_t>(in(
                ar.getU8(), 0, params_.vc_classes, "VC output class"));
            ivc.out_dim = static_cast<std::uint8_t>(
                in(ar.getU8(), 0, 3, "VC output dimension"));
            ivc.fifo.clear();
            std::uint64_t n = ar.getU64();
            in(static_cast<std::int64_t>(n), 0, params_.buffer_depth + 1,
               "FIFO size");
            for (std::uint64_t i = 0; i < n; ++i)
                ivc.fifo.push_back(restoreCheckedFlit(
                    ar, table, params_.vc_classes, 0, "object", "router",
                    id_));
        }
    }
    for (auto &op : outputs_) {
        op.sa_rr = in(ar.getI64(), 0, nports, "SA output cursor");
        std::uint64_t n_rr = ar.getU64();
        if (n_rr != op.va_rr.size())
            panic("router ", id_, ": VA arbiter shape mismatch");
        for (int &rr : op.va_rr)
            rr = in(ar.getI64(), 0, params_.vcs_per_vnet, "VA cursor");
        for (auto &ovc : op.vcs) {
            ovc.busy = ar.getBool();
            ovc.credits = static_cast<int>(ar.getI64());
        }
    }
    ar.endSection();
}

} // namespace noc
} // namespace rasim
