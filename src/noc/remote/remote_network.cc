#include "noc/remote/remote_network.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "ipc/faulty_transport.hh"
#include "ipc/frame.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace noc
{
namespace remote
{

namespace
{

/** Rng stream of the retry policy's jitter draws. */
constexpr std::uint64_t rng_stream_retry = 0x7274;

} // namespace

RemoteOptions
RemoteOptions::fromConfig(const Config &cfg)
{
    RemoteOptions o;
    o.socket = cfg.getString("remote.socket", o.socket);
    o.connect_timeout_ms =
        cfg.getDouble("remote.connect_timeout_ms", o.connect_timeout_ms);
    o.quantum_timeout_ms =
        cfg.getDouble("remote.quantum_timeout_ms", o.quantum_timeout_ms);
    o.model = cfg.getString("remote.model", o.model);
    o.engine_workers =
        static_cast<int>(cfg.getUInt("remote.engine_workers", 0));

    // Failover set: a comma-separated endpoint list overrides the
    // single remote.socket address (and becomes the primary).
    std::string eps = cfg.getString("network.remote.endpoints", "");
    if (!eps.empty()) {
        o.endpoints.clear();
        std::size_t pos = 0;
        while (pos <= eps.size()) {
            std::size_t comma = eps.find(',', pos);
            std::string ep =
                comma == std::string::npos
                    ? eps.substr(pos)
                    : eps.substr(pos, comma - pos);
            while (!ep.empty() && (ep.front() == ' ' || ep.front() == '\t'))
                ep.erase(ep.begin());
            while (!ep.empty() && (ep.back() == ' ' || ep.back() == '\t'))
                ep.pop_back();
            if (!ep.empty())
                o.endpoints.push_back(ep);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (o.endpoints.empty())
            fatal("network.remote.endpoints: no usable address in '",
                  eps, "'");
        o.socket = o.endpoints.front();
    }
    o.ckpt_quanta =
        cfg.getUInt("network.remote.ckpt_quanta", o.ckpt_quanta);
    o.heartbeat_ms =
        cfg.getDouble("network.remote.heartbeat_ms", o.heartbeat_ms);
    o.attest_quanta =
        cfg.getUInt("network.remote.attest_quanta", o.attest_quanta);
    o.registry = cfg.getString("network.remote.registry", o.registry);
    o.retry = ipc::RetryOptions::fromConfig(cfg);
    o.fault = TransportFaultOptions::fromConfig(cfg);

    if (!ipc::validAddress(o.socket))
        fatal("remote.socket: unusable address '", o.socket, "'");
    for (const std::string &ep : o.endpoints) {
        if (!ipc::validAddress(ep))
            fatal("network.remote.endpoints: unusable address '", ep,
                  "'");
    }
    if (o.connect_timeout_ms <= 0.0)
        fatal("remote.connect_timeout_ms must be positive");
    if (o.heartbeat_ms < 0.0)
        fatal("network.remote.heartbeat_ms must be non-negative");
    if (o.quantum_timeout_ms < 0.0)
        fatal("remote.quantum_timeout_ms must be non-negative");
    if (o.model != "cycle" && o.model != "deflection")
        fatal("remote.model must be cycle or deflection, not '",
              o.model, "'");
    if (o.engine_workers < 0)
        fatal("remote.engine_workers must be non-negative");
    return o;
}

RemoteNetwork::RemoteNetwork(Simulation &sim, const std::string &name,
                             const NocParams &params,
                             RemoteOptions options, SimObject *parent)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the network"),
      packetsDelivered(this, "packets_delivered",
                       "packets fully received"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      networkLatency(this, "network_latency",
                     "fabric enter-to-deliver latency (cycles)"),
      queueLatency(this, "queue_latency",
                   "source queueing latency (cycles)"),
      hopCount(this, "hop_count", "router-to-router hops per packet"),
      rpcRoundTrips(this, "rpc_round_trips",
                    "quantum RPC round-trips completed"),
      elidedQuanta(this, "elided_quanta",
                   "idle quanta served without touching the wire"),
      specHits(this, "spec_hits", "always 0; kept for old readers"),
      schedThrottles(this, "sched_throttles",
                     "replies delayed by the server's fair scheduler"),
      health(this, "health"),
      reconnects(&health, "reconnects",
                 "sessions re-opened after a connection loss"),
      retries(&health, "retries",
              "transport attempts re-run after a backoff"),
      failovers(&health, "failovers",
                "sessions moved to a different endpoint"),
      backoffMsTotal(&health, "backoff_ms_total",
                     "wall-clock milliseconds slept in retry backoffs"),
      breakerTrips(&health, "breaker_trips",
                   "circuit breaker openings (exhausted retry rounds)"),
      standbyPrimeFailures(&health, "standby_prime_failures",
                           "standby priming attempts that failed"),
      reprimes(&health, "reprimes",
               "standby sessions re-primed after a loss or promotion"),
      heartbeatMisses(&health, "heartbeat_misses",
                      "liveness probes an endpoint failed to answer"),
      attestationMismatches(&health, "attestation_mismatches",
                            "replica state digests that diverged"),
      workerRestarts(&health, "worker_restarts",
                     "supervised worker restarts (registry mirror)"),
      params_(params), options_(std::move(options)),
      // Identical geometry to the bridge's reciprocal table, so the
      // server's shadow table and the bridge's table are comparable
      // entry for entry.
      table_proto_(params, params.columns + params.rows + 2,
                   sim.config().getDouble("abstract.ewma_alpha", 0.05),
                   sim.config().getString("abstract.granularity",
                                          "distance") == "pair"
                       ? abstractnet::LatencyTable::Granularity::Pair
                       : abstractnet::LatencyTable::Granularity::Distance,
                   params.numNodes())
{
    params_.validate();
    if (options_.endpoints.empty())
        options_.endpoints = {options_.socket};
    // One fault schedule and one retry policy for the object's whole
    // life: the draw sequences run across reconnects and failovers,
    // which is what makes a chaos run reproducible end to end.
    fault_sched_ = TransportFaultSchedule(options_.fault);
    retry_ = ipc::RetryPolicy(options_.retry,
                              sim.makeRng(rng_stream_retry));
    for (int v = 0; v < num_vnets; ++v) {
        vnetLatency.push_back(std::make_unique<stats::Distribution>(
            this, std::string("latency_vnet") + std::to_string(v),
            "total latency on vnet " + std::to_string(v)));
    }
    num_nodes_ = static_cast<std::uint64_t>(params_.numNodes());
    // A registry written before we started can already widen the
    // endpoint set; afterwards the breaker gets one scope per
    // endpoint, so one dead worker cannot trip the others' budgets.
    refreshRegistry();
    retry_.setScopes(options_.endpoints.size());
    runWithRetry([] { return 0; });
    startProber();
}

RemoteNetwork::~RemoteNetwork()
{
    stopProber();
    auto bye = [](ipc::ByteChannel *ch) {
        if (!ch || !ch->valid())
            return;
        try {
            ipc::sendMessage(*ch, ipc::beginMessage(ipc::MsgType::Bye));
        } catch (const SimError &) {
            // Best-effort goodbye; the server treats EOF the same way.
        }
    };
    bye(standby_chan_.get());
    bye(chan_.get());
}

std::size_t
RemoteNetwork::numNodes() const
{
    return static_cast<std::size_t>(num_nodes_);
}

std::optional<NetworkModel::Accounting>
RemoteNetwork::accounting() const
{
    return acct_;
}

void
RemoteNetwork::requestAbort()
{
    abort_.store(true, std::memory_order_relaxed);
}

ipc::FaultyTransport *
RemoteNetwork::faultyChannel()
{
    return dynamic_cast<ipc::FaultyTransport *>(chan_.get());
}

void
RemoteNetwork::inject(const PacketPtr &pkt)
{
    // No IO here: injections buffer until the quantum boundary, so a
    // dead server cannot fail an inject() — every transport fault
    // surfaces inside advanceTo(), where the bridge's health machinery
    // catches backend errors.
    ++packetsInjected;
    pending_.push_back(pkt);
}

bool
RemoteNetwork::retryable(const SimError &err) const
{
    // An abort is the caller cancelling the operation; honouring it
    // beats masking it.
    if (abort_.load(std::memory_order_relaxed))
        return false;
    return err.kind() == ErrorKind::Transport ||
           err.kind() == ErrorKind::Timeout;
}

void
RemoteNetwork::syncHealthStats()
{
    retries.set(static_cast<double>(retry_.retries()));
    breakerTrips.set(static_cast<double>(retry_.breakerTrips()));
    backoffMsTotal.set(retry_.backoffMsTotal());
    heartbeatMisses.set(static_cast<double>(
        heartbeat_misses_.load(std::memory_order_relaxed)));
    workerRestarts.set(static_cast<double>(registry_restarts_));
}

void
RemoteNetwork::markDisconnected()
{
    // Only the connection dies; the recovery lineage (base image +
    // journal) stays, so a retry can rebuild the server state.
    chan_.reset();
}

void
RemoteNetwork::giveUp()
{
    // The retry round is exhausted: drop the whole lineage, reverting
    // to the pre-retry lossy semantics the bridge's quarantine is built
    // around. Buffered injections die with the server that would have
    // simulated them; a later re-engagement opens a fresh session from
    // an empty fabric at the current tick.
    journal_.clear();
    base_image_.clear();
    base_digest_ = 0;
    journal_base_ = cur_time_;
    quanta_since_base_ = 0;
    pending_.clear();
    standby_chan_.reset();
    standby_valid_ = false;
    // No base image, nothing to prime from: the next refreshBase()
    // restarts the replication machinery from scratch.
    reprime_pending_ = false;
    reprime_backoff_ = 1;
}

void
RemoteNetwork::rethrowPartingError(ipc::ByteChannel &ch,
                                   const SimError &send_err)
{
    // An AF_UNIX peer's close does not discard data it already wrote,
    // so an admission refusal sent just before the close is still
    // readable even though our own send got EPIPE.
    std::optional<ipc::Message> parting;
    try {
        parting = ipc::recvMessage(ch, 200.0, &abort_);
    } catch (const SimError &) {
        throw send_err;
    }
    if (parting && parting->type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(parting->ar);
    throw send_err;
}

ipc::Message
RemoteNetwork::expectReplyOn(ipc::ByteChannel &ch,
                             const std::string &addr, double timeout_ms)
{
    auto msg = ipc::recvMessage(ch, timeout_ms, &abort_);
    if (!msg) {
        throw SimError(ErrorKind::Transport,
                       "server '" + addr +
                           "' closed the connection mid-request");
    }
    return std::move(*msg);
}

ipc::Message
RemoteNetwork::expectReply(double timeout_ms)
{
    return expectReplyOn(*chan_, activeEndpoint(), timeout_ms);
}

std::unique_ptr<ipc::ByteChannel>
RemoteNetwork::openChannelTo(std::size_t ep, double timeout_ms)
{
    ipc::Fd fd = ipc::connectTo(options_.endpoints[ep], timeout_ms);
    std::unique_ptr<ipc::ByteChannel> ch =
        std::make_unique<ipc::FdChannel>(std::move(fd));
    if (options_.fault.enabled) {
        ch = std::make_unique<ipc::FaultyTransport>(std::move(ch),
                                                    &fault_sched_);
    }
    return ch;
}

ipc::HelloReply
RemoteNetwork::helloOn(ipc::ByteChannel &ch, const std::string &addr)
{
    ipc::HelloRequest req;
    req.model = options_.model;
    req.params = params_;
    req.engine_workers = options_.engine_workers;
    req.table_alpha = table_proto_.alpha();
    req.table_pair_granularity =
        table_proto_.granularity() ==
        abstractnet::LatencyTable::Granularity::Pair;
    req.table_max_hops = table_proto_.maxHops();
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::Hello);
    ipc::encodeHello(aw, req);
    try {
        ipc::sendMessage(ch, std::move(aw));
    } catch (const SimError &e) {
        // The server can refuse admission and close before our Hello
        // lands; surface its typed refusal, not the EPIPE.
        rethrowPartingError(ch, e);
    }

    ipc::Message msg =
        expectReplyOn(ch, addr, options_.connect_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::HelloAck) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected HelloAck, got ") +
                           ipc::toString(msg.type));
    }
    ipc::HelloReply rep = ipc::decodeHelloReply(msg.ar);
    msg.done();
    return rep;
}

ipc::CkptLoadReply
RemoteNetwork::ckptLoadOn(ipc::ByteChannel &ch, const std::string &addr,
                          const std::string &image)
{
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::CkptLoad);
    aw.putString(image);
    ipc::sendMessage(ch, std::move(aw));
    ipc::Message msg =
        expectReplyOn(ch, addr, options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::CkptLoadAck) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected CkptLoadAck, got ") +
                           ipc::toString(msg.type));
    }
    ipc::CkptLoadReply rep = ipc::decodeCkptLoadReply(msg.ar);
    msg.done();
    return rep;
}

bool
RemoteNetwork::promoteStandby()
{
    if (!standby_valid_ || !standby_chan_ || !standby_chan_->valid() ||
        standby_tick_ != journal_base_ || base_image_.empty())
        return false;
    // Hot failover: the standby session already holds the base image,
    // so recovery is the journal replay alone — no state transfer on
    // the critical path.
    chan_ = std::move(standby_chan_);
    standby_valid_ = false;
    active_ep_ = (active_ep_ + 1) % options_.endpoints.size();
    ++failovers;
    server_time_ = standby_tick_;
    // The promotion consumed the standby: queue a re-prime so a
    // second failure is survivable too (countdown runs in successful
    // quanta, giving the supervisor time to respawn the dead worker).
    scheduleReprime();
    if (test_hooks.on_promote)
        test_hooks.on_promote();
    return true;
}

std::uint64_t
RemoteNetwork::refreshRegistry()
{
    const std::uint64_t all_up = ~std::uint64_t(0);
    if (options_.registry.empty())
        return all_up;
    std::ifstream in(options_.registry);
    if (!in)
        return all_up; // not written yet: trust the static list
    // Format (one worker per line, written atomically by
    // rasim-supervisor):
    //   rasim-registry v1
    //   worker <idx> <addr> <up|down> pid <pid> restarts <n>
    std::vector<std::string> addrs;
    std::uint64_t up_mask = 0;
    std::uint64_t restarts_total = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag != "worker")
            continue;
        std::uint64_t idx = 0;
        std::string addr, state, pid_tag, restarts_tag;
        std::uint64_t pid = 0, restarts = 0;
        ls >> idx >> addr >> state >> pid_tag >> pid >> restarts_tag >>
            restarts;
        if (!ls || addr.empty() || !ipc::validAddress(addr))
            continue;
        if (idx >= 64 || idx != addrs.size())
            continue; // torn or out-of-order line: keep what parses
        addrs.push_back(addr);
        if (state == "up")
            up_mask |= std::uint64_t(1) << idx;
        restarts_total += restarts;
    }
    if (addrs.empty())
        return all_up;
    registry_restarts_ = restarts_total;
    {
        // The heartbeat prober snapshots this list from its own
        // thread.
        std::lock_guard<std::mutex> lk(prober_mu_);
        options_.endpoints = std::move(addrs);
    }
    if (active_ep_ >= options_.endpoints.size())
        active_ep_ = 0;
    retry_.setScopes(options_.endpoints.size());
    syncHealthStats();
    return up_mask;
}

void
RemoteNetwork::coldOpen()
{
    // Under a supervisor the fleet may have moved since the failure:
    // re-resolve it, and learn which workers the supervisor believes
    // are up.
    const std::uint64_t up_mask = refreshRegistry();
    const std::size_t n = options_.endpoints.size();
    std::optional<SimError> last;
    // Two passes over the ring starting at the active endpoint: the
    // likely-healthy endpoints (registry says up, breaker closed)
    // first, then the suspect ones as last-resort probes. A dead
    // primary with an open breaker therefore costs the failover to a
    // healthy standby nothing at all.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t ep = (active_ep_ + i) % n;
            const bool healthy = (ep >= 64 ||
                                  (up_mask & (std::uint64_t(1) << ep))) &&
                                 !retry_.breakerOpen(ep);
            if ((pass == 0) != healthy)
                continue;
            const std::string &addr = options_.endpoints[ep];
            try {
                // Cap the connect wait to the retry round's remaining
                // deadline, so a dead endpoint cannot eat the budget
                // of the live ones behind it.
                double budget =
                    retry_.capToDeadline(options_.connect_timeout_ms);
                std::unique_ptr<ipc::ByteChannel> ch =
                    openChannelTo(ep, budget);
                // The fresh fabric starts at tick 0. A base image
                // rewinds it to the base; without one the lineage is
                // empty and an empty Step below catches it up to the
                // base tick.
                ipc::HelloReply rep = helloOn(*ch, addr);
                Tick server_tick = 0;
                if (!base_image_.empty()) {
                    ipc::CkptLoadReply ack =
                        ckptLoadOn(*ch, addr, base_image_);
                    server_tick = ack.cur_time;
                    if (server_tick != journal_base_) {
                        throw SimError(
                            ErrorKind::Transport,
                            "restored server is at tick " +
                                std::to_string(server_tick) +
                                " but the base image was taken at "
                                "tick " +
                                std::to_string(journal_base_));
                    }
                    if (ack.digest != base_digest_) {
                        // The replica's own re-serialization disagrees
                        // with the attested base: its state diverged
                        // and nothing it computes can be trusted.
                        ++attestationMismatches;
                        throw SimError(
                            ErrorKind::Transport,
                            "replica attestation mismatch on '" +
                                addr + "': restored state digest " +
                                std::to_string(ack.digest) +
                                " != base digest " +
                                std::to_string(base_digest_));
                    }
                }
                if (server_tick < journal_base_) {
                    // The same catch-up syncNow() sends after idle
                    // elision: the fabric is empty, so the reply
                    // carries no deliveries.
                    ipc::StepRequest req;
                    req.target = journal_base_;
                    std::uint8_t flags = 0;
                    std::uint64_t digest = 0;
                    server_tick =
                        exchangeStepOn(*ch, addr, req, flags, digest)
                            .cur_time;
                }
                num_nodes_ = rep.num_nodes;
                if (ep != active_ep_)
                    ++failovers;
                active_ep_ = ep;
                retry_.noteSuccess(ep);
                chan_ = std::move(ch);
                server_time_ = server_tick;
                return;
            } catch (const SimError &e) {
                last = e;
            }
        }
    }
    throw *last; // endpoints is never empty
}

void
RemoteNetwork::replayJournal()
{
    for (std::size_t i = 0; i < journal_.size(); ++i) {
        const QuantumRecord &rec = journal_[i];
        if (test_hooks.on_replay)
            test_hooks.on_replay(i);
        ipc::StepRequest req;
        req.target = rec.target;
        req.attest = rec.attested;
        req.packets = rec.packets;
        std::uint8_t flags = 0;
        std::uint64_t digest = 0;
        ipc::AdvanceReply rep = exchangeStep(req, flags, digest);
        // The original exchange attested this quantum: the rebuilt
        // replica must reproduce that digest exactly, or its state
        // has diverged from the run the journal records — quarantine
        // it (feed its breaker, shift the endpoint preference) and
        // let the retry round recover on another replica.
        if (rec.attested && digest != rec.digest) {
            ++attestationMismatches;
            retry_.noteRoundFailed(active_ep_);
            const std::string addr = activeEndpoint();
            active_ep_ =
                (active_ep_ + 1) % options_.endpoints.size();
            throw SimError(
                ErrorKind::Transport,
                "replica attestation mismatch on '" + addr +
                    "' at replayed quantum " + std::to_string(i) +
                    ": digest " + std::to_string(digest) + " != " +
                    std::to_string(rec.digest));
        }
        // The replies' deliveries (and flags) were already applied in
        // the original run; only the clock mirror moves.
        server_time_ = rep.cur_time;
    }
}

void
RemoteNetwork::ensureSession()
{
    if (chan_ && chan_->valid())
        return;
    chan_.reset();
    const bool recon = ever_connected_;
    if (!promoteStandby())
        coldOpen();
    ever_connected_ = true;
    if (recon)
        ++reconnects;
    // By the server's determinism, re-issuing the journaled quanta
    // against the restored base reproduces the pre-failure state —
    // deliveries, stats and tuned table — bit for bit.
    replayJournal();
}

void
RemoteNetwork::applyReply(const ipc::AdvanceReply &rep)
{
    cur_time_ = rep.cur_time;
    server_time_ = rep.cur_time;
    idle_ = rep.idle;
    acct_.injected = rep.injected;
    acct_.delivered = rep.delivered;
    acct_.in_flight = rep.in_flight;
    ++rpcRoundTrips;

    // Replay in delivery order: the handler (and the mirrored
    // aggregates) see exactly what an in-process backend would
    // have produced, in the same order.
    for (const PacketPtr &pkt : rep.deliveries) {
        ++packetsDelivered;
        totalLatency.sample(static_cast<double>(pkt->latency()));
        networkLatency.sample(
            static_cast<double>(pkt->networkLatency()));
        queueLatency.sample(static_cast<double>(pkt->queueLatency()));
        hopCount.sample(static_cast<double>(pkt->hops));
        vnetLatency[static_cast<int>(pkt->cls)]->sample(
            static_cast<double>(pkt->latency()));
        if (handler_)
            handler_(pkt);
    }
}

ipc::AdvanceReply
RemoteNetwork::exchangeStepOn(ipc::ByteChannel &ch, const std::string &addr,
                              const ipc::StepRequest &req,
                              std::uint8_t &flags, std::uint64_t &digest)
{
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::Step);
    ipc::encodeStep(aw, req);
    ipc::sendMessage(ch, std::move(aw));

    ipc::Message msg =
        expectReplyOn(ch, addr, options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::StepReply) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected StepReply, got ") +
                           ipc::toString(msg.type));
    }
    ipc::AdvanceReply rep = ipc::decodeStepReply(msg.ar, flags, &digest);
    msg.done();
    return rep;
}

ipc::AdvanceReply
RemoteNetwork::exchangeStep(const ipc::StepRequest &req,
                           std::uint8_t &flags, std::uint64_t &digest)
{
    return exchangeStepOn(*chan_, activeEndpoint(), req, flags, digest);
}

void
RemoteNetwork::stepOnce(const ipc::StepRequest &req)
{
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    std::uint8_t flags = 0;
    std::uint64_t digest = 0;
    ipc::AdvanceReply rep = exchangeStep(req, flags, digest);
    last_step_attested_ = (flags & ipc::step_flag_attested) != 0;
    last_step_digest_ = digest;
    if (test_hooks.corrupt_attest)
        last_step_digest_ ^= 1;
    if (flags & ipc::step_flag_throttled)
        ++schedThrottles;
    applyReply(rep);
}

void
RemoteNetwork::advanceTo(Tick t)
{
    // The abort request is sticky until the next advanceTo() call.
    abort_.store(false, std::memory_order_relaxed);

    // Quantum-boundary replica maintenance: act on anything the
    // heartbeat prober flagged, and run a due re-prime.
    maintainReplicas();

    // Idle elision: an idle fabric with nothing buffered cannot
    // produce a delivery, so the quantum needs no RPC at all — the
    // clock advances locally and the server's own idle fast-forward
    // catches its copy up on the next real exchange. This is where
    // most of the amortized per-quantum overhead goes: long idle
    // stretches (warmup, drain tails, disengaged phases) cost zero
    // syscalls.
    if (idle_ && pending_.empty()) {
        if (t > cur_time_) {
            cur_time_ = t;
            ++elidedQuanta;
        }
        return;
    }

    // Build the quantum request once; every retry attempt re-sends
    // identical bytes against a recovered session, and the request
    // joins the journal on success so later recoveries replay it.
    // Inject batch + advance target in one frame, reply in one
    // frame: two syscalls a quantum.
    ipc::StepRequest req;
    req.target = t;
    req.packets = std::move(pending_);
    pending_.clear();
    // Periodic attestation: every attest_quanta-th issued quantum
    // carries a digest request, journaled with its answer. The cadence
    // counts issued quanta, so it is a pure function of simulated
    // progress and survives retries (the identical request is re-sent).
    ++attest_counter_;
    req.attest = options_.attest_quanta != 0 &&
                 attest_counter_ % options_.attest_quanta == 0;
    runWithRetry([&] {
        stepOnce(req);
        return 0;
    });
    journal_.push_back({t, std::move(req.packets),
                        req.attest && last_step_attested_,
                        last_step_digest_});
    ++quanta_since_base_;
    if (options_.ckpt_quanta != 0 &&
        quanta_since_base_ >= options_.ckpt_quanta)
        refreshBase();
}

void
RemoteNetwork::syncNow()
{
    if (server_time_ >= cur_time_)
        return;
    // Idle elision left the server's clock behind; an empty Step
    // brings it to the client's tick so paired
    // state (tables, stats, checkpoints) is read at the same time on
    // both sides. The fabric was idle throughout, so the reply cannot
    // carry deliveries. Not journaled: a recovery replay ends at the
    // last journaled quantum and the next syncNow() repeats the
    // catch-up, deterministically.
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    ipc::StepRequest req;
    req.target = cur_time_;
    std::uint8_t flags = 0;
    std::uint64_t digest = 0;
    applyReply(exchangeStep(req, flags, digest));
}

ipc::CkptReply
RemoteNetwork::ckptSaveNow()
{
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    if (test_hooks.on_ckpt_save)
        test_hooks.on_ckpt_save();
    ipc::sendMessage(*chan_, ipc::beginMessage(ipc::MsgType::CkptSave));
    ipc::Message msg = expectReply(options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::CkptData) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected CkptData, got ") +
                           ipc::toString(msg.type));
    }
    ipc::CkptReply rep = ipc::decodeCkptReply(msg.ar);
    msg.done();
    // The image's CRC64 is recomputed locally: what this client holds
    // must be what the server attested, or the lineage built on it
    // would replicate corruption instead of state.
    if (crc64(rep.image) != rep.digest) {
        throw SimError(ErrorKind::Transport,
                       "checkpoint image failed its attestation digest "
                       "(corrupted in transit)");
    }
    if (test_hooks.corrupt_attest)
        rep.digest ^= 1;
    return rep;
}

void
RemoteNetwork::adoptBase(std::string image, std::uint64_t digest)
{
    base_image_ = std::move(image);
    base_digest_ = digest;
    journal_base_ = cur_time_;
    journal_.clear();
    quanta_since_base_ = 0;
}

void
RemoteNetwork::refreshBase()
{
    try {
        syncNow();
        ipc::CkptReply ckpt = ckptSaveNow();
        adoptBase(std::move(ckpt.image), ckpt.digest);
        replicateToStandby();
    } catch (const SimError &) {
        // Single attempt: the old lineage (longer journal) is still
        // valid, and the next operation's retry round recovers the
        // dropped connection.
        markDisconnected();
    }
}

void
RemoteNetwork::scheduleReprime()
{
    reprime_pending_ = true;
    reprime_countdown_ = reprime_backoff_;
    // Exponential in successful quanta, capped: frequent enough to
    // converge quickly once the supervisor has respawned the dead
    // worker, sparse enough not to burn every quantum on a connect
    // attempt to a corpse.
    reprime_backoff_ = std::min<std::uint64_t>(reprime_backoff_ * 2, 64);
}

void
RemoteNetwork::replicateToStandby()
{
    if (options_.endpoints.size() < 2 || base_image_.empty())
        return;
    const std::size_t ep = (active_ep_ + 1) % options_.endpoints.size();
    const std::string &addr = options_.endpoints[ep];
    const bool was_pending = reprime_pending_;
    try {
        if (!standby_chan_ || !standby_chan_->valid()) {
            standby_chan_ =
                openChannelTo(ep, options_.connect_timeout_ms);
            helloOn(*standby_chan_, addr);
        }
        ipc::CkptLoadReply ack =
            ckptLoadOn(*standby_chan_, addr, base_image_);
        standby_tick_ = ack.cur_time;
        // Replica attestation: the standby re-serialized what it
        // restored; if that digest is not the base's, the standby
        // holds diverged state and must not be promoted — quarantine
        // it and retry the priming from scratch later.
        if (ack.digest != base_digest_) {
            ++attestationMismatches;
            throw SimError(ErrorKind::Transport,
                           "standby '" + addr +
                               "' failed attestation: digest " +
                               std::to_string(ack.digest) + " != " +
                               std::to_string(base_digest_));
        }
        standby_valid_ = standby_tick_ == journal_base_;
        if (standby_valid_) {
            retry_.noteSuccess(ep);
            if (was_pending) {
                ++reprimes;
                reprime_pending_ = false;
                reprime_backoff_ = 1;
            }
        }
    } catch (const SimError &) {
        // A dead or diverged standby costs nothing until the primary
        // also dies — but it is never silently forgotten: the failure
        // is counted and a deterministic re-prime retry is queued, so
        // the client regains a standby once the worker comes back.
        standby_chan_.reset();
        standby_valid_ = false;
        ++standbyPrimeFailures;
        scheduleReprime();
    }
}

void
RemoteNetwork::maintainReplicas()
{
    // Consume the prober's verdicts first: suspicions about the
    // active endpoint drop the connection now (so the coming
    // ensureSession fails over before wasting a quantum timeout on a
    // corpse), suspicions about the standby quarantine it.
    std::uint64_t suspects =
        suspect_mask_.exchange(0, std::memory_order_acq_rel);
    if (suspects != 0) {
        syncHealthStats();
        if (active_ep_ < 64 &&
            (suspects & (std::uint64_t(1) << active_ep_)))
            markDisconnected();
        const std::size_t standby_ep =
            (active_ep_ + 1) % options_.endpoints.size();
        if (standby_valid_ && standby_ep < 64 &&
            (suspects & (std::uint64_t(1) << standby_ep))) {
            standby_chan_.reset();
            standby_valid_ = false;
            scheduleReprime();
        }
    }
    if (reprime_pending_) {
        if (reprime_countdown_ > 0)
            --reprime_countdown_;
        if (reprime_countdown_ == 0)
            replicateToStandby();
    }
}

void
RemoteNetwork::startProber()
{
    if (options_.heartbeat_ms <= 0.0)
        return;
    prober_ = std::thread([this] { proberLoop(); });
}

void
RemoteNetwork::stopProber()
{
    if (!prober_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(prober_mu_);
        prober_stop_ = true;
    }
    prober_cv_.notify_all();
    prober_.join();
}

void
RemoteNetwork::proberLoop()
{
    // Dedicated plain connections, one per endpoint, reconnected on
    // demand: never the RPC session channel (a probe must not race a
    // quantum exchange) and never chaos-wrapped (a probe must not
    // consume fault-schedule draws, or running the prober would
    // change a chaos run's outcome).
    std::vector<std::unique_ptr<ipc::ByteChannel>> probes;
    std::uint64_t nonce = 0;
    for (;;) {
        std::vector<std::string> eps;
        {
            std::unique_lock<std::mutex> lk(prober_mu_);
            prober_cv_.wait_for(
                lk,
                std::chrono::duration<double, std::milli>(
                    options_.heartbeat_ms),
                [this] { return prober_stop_; });
            if (prober_stop_)
                return;
            eps = options_.endpoints;
        }
        if (probes.size() < eps.size())
            probes.resize(eps.size());
        for (std::size_t i = 0; i < eps.size() && i < 64; ++i) {
            bool alive = false;
            try {
                if (!probes[i] || !probes[i]->valid()) {
                    ipc::Fd fd =
                        ipc::connectTo(eps[i], options_.heartbeat_ms);
                    probes[i] = std::make_unique<ipc::FdChannel>(
                        std::move(fd));
                }
                ipc::PingRequest req;
                req.nonce = ++nonce;
                ArchiveWriter aw =
                    ipc::beginMessage(ipc::MsgType::Ping);
                ipc::encodePing(aw, req);
                ipc::sendMessage(*probes[i], std::move(aw));
                auto msg = ipc::recvMessage(*probes[i],
                                            options_.heartbeat_ms);
                alive = msg && msg->type == ipc::MsgType::Pong &&
                        ipc::decodePong(msg->ar).nonce == req.nonce;
            } catch (const SimError &) {
                alive = false;
            }
            if (!alive) {
                // A missed beat is only a suspicion — the RPC path
                // consumes it at the next quantum boundary and the
                // retry machinery does the actual failing over.
                probes[i].reset();
                heartbeat_misses_.fetch_add(1,
                                            std::memory_order_relaxed);
                suspect_mask_.fetch_or(std::uint64_t(1) << i,
                                       std::memory_order_acq_rel);
            }
        }
    }
}

void
RemoteNetwork::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

abstractnet::LatencyTable
RemoteNetwork::fetchTunedTable()
{
    return runWithRetry([&] {
        syncNow();
        ipc::sendMessage(*chan_,
                         ipc::beginMessage(ipc::MsgType::TableGet));
        ipc::Message msg = expectReply(options_.quantum_timeout_ms);
        if (msg.type == ipc::MsgType::ErrorReply)
            ipc::throwDecodedError(msg.ar);
        if (msg.type != ipc::MsgType::TableData) {
            throw SimError(ErrorKind::Transport,
                           std::string("expected TableData, got ") +
                               ipc::toString(msg.type));
        }
        abstractnet::LatencyTable table = table_proto_;
        try {
            // Table bytes come off the wire: archive misuse on a
            // CRC-valid-but-malformed payload must be a typed error.
            logging::ThrowOnError guard;
            table.restoreBinary(msg.ar);
        } catch (const SimError &err) {
            if (err.kind() == ErrorKind::Transport ||
                err.kind() == ErrorKind::Timeout)
                throw;
            throw SimError(ErrorKind::Transport,
                           std::string("malformed TableData payload: ") +
                               err.what());
        }
        msg.done();
        return table;
    });
}

std::vector<ipc::StatRow>
RemoteNetwork::fetchRemoteStats()
{
    return runWithRetry([&] {
        syncNow();
        ipc::sendMessage(*chan_,
                         ipc::beginMessage(ipc::MsgType::StatsGet));
        ipc::Message msg = expectReply(options_.quantum_timeout_ms);
        if (msg.type == ipc::MsgType::ErrorReply)
            ipc::throwDecodedError(msg.ar);
        if (msg.type != ipc::MsgType::StatsData) {
            throw SimError(ErrorKind::Transport,
                           std::string("expected StatsData, got ") +
                               ipc::toString(msg.type));
        }
        auto rows = ipc::decodeStatsReply(msg.ar);
        msg.done();
        return rows;
    });
}

void
RemoteNetwork::save(ArchiveWriter &aw)
{
    aw.beginSection("remote_net");
    aw.putU64(cur_time_);
    aw.putBool(idle_);
    aw.putU64(acct_.injected);
    aw.putU64(acct_.delivered);
    aw.putU64(acct_.in_flight);
    aw.putU64(num_nodes_);
    aw.putU64(pending_.size());
    for (const PacketPtr &pkt : pending_)
        savePacket(aw, *pkt);

    // Paired server-side checkpoint, embedded so one client image
    // restores both processes coherently. Unreachable server: the
    // image is omitted and restore opens a fresh session at the saved
    // tick (the deliveries still in the old fabric are lost — the same
    // loss the outage itself caused).
    ipc::CkptReply ckpt;
    try {
        ckpt = runWithRetry([&] {
            // The paired image must be taken at the client's tick, not
            // wherever idle elision left the server's clock.
            syncNow();
            return ckptSaveNow();
        });
    } catch (const SimError &err) {
        warn("remote checkpoint unavailable (", err.what(),
             "); saving the client half only");
    }
    if (!ckpt.image.empty()) {
        // An explicit checkpoint is also a fresh recovery base.
        adoptBase(ckpt.image, ckpt.digest);
        replicateToStandby();
    }
    aw.putBool(!ckpt.image.empty());
    if (!ckpt.image.empty())
        aw.putString(ckpt.image);
    aw.endSection();
}

void
RemoteNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("remote_net");
    cur_time_ = ar.getU64();
    idle_ = ar.getBool();
    acct_.injected = ar.getU64();
    acct_.delivered = ar.getU64();
    acct_.in_flight = ar.getU64();
    num_nodes_ = ar.getU64();
    std::vector<PacketPtr> pending;
    std::uint64_t n = ar.getU64();
    pending.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        pending.push_back(restorePacket(ar));
    bool has_image = ar.getBool();
    std::string image = has_image ? ar.getString() : std::string();
    ar.endSection();

    // Whatever session is live belongs to the pre-restore timeline;
    // the restored image becomes the new recovery base (empty image =
    // cold Hello at the saved tick, rebuilding an empty fabric).
    markDisconnected();
    standby_chan_.reset();
    standby_valid_ = false;
    journal_.clear();
    quanta_since_base_ = 0;
    journal_base_ = cur_time_;
    base_image_ = std::move(image);
    // The image came from a trusted archive, not the wire: its digest
    // is recomputed locally so the restored session's CkptLoadAck can
    // still be attested against it.
    base_digest_ = base_image_.empty() ? 0 : crc64(base_image_);
    if (test_hooks.corrupt_attest && !base_image_.empty())
        base_digest_ ^= 1;

    runWithRetry([] { return 0; });
    if (has_image)
        replicateToStandby();
    pending_ = std::move(pending);
}

} // namespace remote
} // namespace noc
} // namespace rasim
