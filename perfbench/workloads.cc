#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <utility>

#include "cosim/full_system.hh"
#include "ipc/nocd_server.hh"
#include "noc/cycle_network.hh"
#include "noc/packet.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "spans.hh"
#include "stats/output.hh"
#include "workload/traffic.hh"

namespace perfbench
{

using namespace rasim;

const std::vector<Metric> kEndToEnd = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"sim_cycles_per_s", "cycles/s"},
    {"packets_per_s", "packets/s"},
    {"peak_rss_mib", "MiB"},
};

const std::vector<Metric> kPerLayer = {
    {"cosim.host_s", "s"},
    {"cosim.net_s", "s"},
    {"cosim.coupling_s", "s"},
    {"cosim.quanta", "count"},
    {"cosim.quantum_us.p50", "us"},
    {"cosim.quantum_us.p99", "us"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"cpu.mem_ops", "count"},
    {"mem.l1_misses", "count"},
    {"mem.dir_requests", "count"},
    {"abstractnet.packets", "count"},
    {"noc.packets", "count"},
    {"noc.flit_hops", "count"},
    {"noc.ns_per_flit_hop", "ns"},
    {"noc.mrouter_cycles_per_s.l002", "Mcycles/s"},
    {"noc.mrouter_cycles_per_s.l009", "Mcycles/s"},
    {"noc.mrouter_cycles_per_s.l020", "Mcycles/s"},
    {"noc.ns_per_flit_hop.l002", "ns"},
    {"noc.ns_per_flit_hop.l009", "ns"},
    {"noc.ns_per_flit_hop.l020", "ns"},
    {"workload.generate_s", "s"},
    {"noc.advance_s", "s"},
    {"alloc.per_quantum", "allocs/quantum"},
    {"serialize.ckpt_bytes", "bytes"},
    {"serialize.save_ms", "ms"},
    {"serialize.restore_ms", "ms"},
    {"ipc.round_trips", "count"},
    {"ipc.elided_quanta", "count"},
    {"ipc.spec_hits", "count"},
    {"ipc.overhead_us_per_quantum", "us"},
    {"trace.run_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_s", "s"},
};

const std::vector<std::string> kWorkloads = {
    "cosim-mesh8",
    "tuned-mesh16",
    "noc-ladder16",
    "remote-lane4",
};

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    failures.push_back(what);
    ++failed;
}

namespace
{

// ---------------------------------------------------------------------
// Workload sizes. A round is one whole workload; the window repeats
// rounds, so these set the sample count per run, not the run length.
// ---------------------------------------------------------------------

/** cosim-mesh8: radix memory operations per core. */
constexpr std::uint64_t kMesh8Ops = 300;
/** tuned-mesh16: fft memory operations per core. From 300 on, some
 *  seeds (about 1 in 80) drive the L1 / directory protocol into a
 *  livelock on 256 cores: a load's GetS and another core's S-to-M
 *  upgrade of the same block invalidate each other forever and the run
 *  never ends. No seed of 1-2000 does at 150. */
constexpr std::uint64_t kMesh16Ops = 150;
/** noc-ladder16: offered loads (packets/node/cycle), their metric
 *  suffixes, cycles generated per load, and the advance step. */
constexpr double kLadderLoads[] = {0.002, 0.009, 0.02};
constexpr const char *kLadderNames[] = {"l002", "l009", "l020"};
constexpr Tick kLadderCycles = 4000;
constexpr Tick kLadderStep = 64;
/** Drain bound after generation stops (cycles). */
constexpr Tick kLadderDrainLimit = 100000;
/** remote-lane4: lu memory operations per core. */
constexpr std::uint64_t kLane4Ops = 1200;

/** The run loop's tick limit, as FullSystem::run's default. */
constexpr Tick kTickLimit = 50000000;
/** Rounds every run takes, however short its window. */
constexpr int kMinRounds = 3;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/** Per-round samples by metric name; a metric reports their median. */
class Samples
{
  public:
    void add(const std::string &name, double v) { m_[name].push_back(v); }
    double median(const std::string &name) const
    {
        auto it = m_.find(name);
        return it == m_.end() ? 0.0 : perfbench::median(it->second);
    }
    /** Nearest-rank percentile, @p q in (0, 1]. */
    double percentile(const std::string &name, double q) const
    {
        auto it = m_.find(name);
        return it == m_.end() ? 0.0 : perfbench::percentile(it->second, q);
    }

  private:
    std::map<std::string, std::vector<double>> m_;
};

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Digest of a stats dump without the remote transport's
 * timing-dependent counters: whether the server had pre-computed a
 * reply (spec hits / rebases) or the fair scheduler delayed one
 * depends on host timing, not on the simulation.
 */
std::uint64_t
simulatedDigest(const std::string &dump, std::uint64_t h)
{
    std::istringstream in(dump);
    std::string line;
    while (std::getline(in, line)) {
        std::string path = line.substr(0, line.find(' '));
        if (path.ends_with(".spec_hits") ||
            path.ends_with(".spec_rebases") ||
            path.ends_with(".sched_throttles"))
            continue;
        h = fnv1a(line, h);
    }
    return h;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Config
makeConfig(const std::vector<std::pair<std::string, std::string>> &keys,
           const RunOptions &o)
{
    Config cfg;
    for (const auto &[k, v] : keys)
        cfg.set(k, v);
    cfg.set("sim.seed", o.seed);
    for (const std::string &kv : o.overrides)
        cfg.parseArg(kv);
    return cfg;
}

/**
 * Whole rounds until the window has passed. A round is one untraced
 * pass, plus one traced pass on a traced run, so both see the same
 * number of rounds and the same host conditions. The process's peak
 * resident set is read when the rounds end, so it covers set-up,
 * references and the measured rounds, not the checks that follow.
 */
template <typename Pass>
int
forRounds(const RunOptions &o, Spans &spans, Report &rep, Pass &&pass)
{
    std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    int rounds = 0;
    while (rounds < kMinRounds || nowNs() < deadline) {
        pass(static_cast<Spans *>(nullptr));
        if (o.trace)
            pass(&spans);
        ++rounds;
    }
    rep.values["peak_rss_mib"] = peakRssMib();
    return rounds;
}

// ---------------------------------------------------------------------
// Full-system driver: FullSystem::run's loop, taken from outside so
// each QuantumBridge::advanceCoupled call can be timed.
// ---------------------------------------------------------------------

struct SystemRun
{
    double setup_s = 0.0;
    double run_s = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t quanta = 0;
    std::uint64_t allocs = 0;
    Tick finish = 0;
    Tick end_tick = 0;
    std::uint64_t packets = 0;
    double mean_latency = 0.0;
    std::uint64_t events = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t dir_requests = 0;
    std::uint64_t abs_packets = 0;
    std::uint64_t noc_packets = 0;
    std::uint64_t flit_hops = 0;
    /** Degraded quanta, transport trips, RPC reconnects and retries. */
    std::uint64_t failed_ops = 0;
    std::uint64_t round_trips = 0;
    std::uint64_t elided = 0;
    std::uint64_t spec_hits = 0;
    /** Hash of the finish tick and the simulated stats. */
    std::uint64_t digest = 0;
    std::string stats_dump;

    bool finished = false;
    bool quiescent = false;
    bool full_budget = false;
    bool conserved = false;

    /** Traced runs: per advanceCoupled call (us) and self times. */
    std::vector<double> call_us;
    std::map<std::string, double> self;
};

class SystemDriver
{
  public:
    SystemDriver(const Config &cfg, Spans *spans)
    {
        cosim::FullSystemOptions opts =
            cosim::FullSystemOptions::fromConfig(cfg);
        quantum_ = opts.quantum;
        std::int64_t t0 = nowNs();
        {
            SpanScope s(spans, "setup");
            sys_ = std::make_unique<cosim::FullSystem>(cfg, opts);
        }
        setup_s_ = static_cast<double>(nowNs() - t0) * 1e-9;
        if (sys_->remoteNetwork()) {
            // The remote fabric's router counters live in the server;
            // count flit-hops from the deliveries instead.
            std::uint32_t flit_bytes = opts.noc.flit_bytes;
            sys_->bridge().setDeliveryObserver(
                [this, flit_bytes](const noc::PacketPtr &pkt) {
                    flit_hops_ += static_cast<std::uint64_t>(
                                      noc::flitsForBytes(pkt->size_bytes,
                                                         flit_bytes)) *
                                  pkt->hops;
                });
        }
    }

    cosim::FullSystem &system() { return *sys_; }

    /**
     * Take run-loop steps until the system has finished (all cores
     * done, memory quiescent, bridge idle), the tick limit is hit, or
     * @p max_calls steps were taken. Returns true once finished.
     */
    bool
    advance(Spans *spans,
            std::uint64_t max_calls =
                std::numeric_limits<std::uint64_t>::max())
    {
        cosim::QuantumBridge &bridge = sys_->bridge();
        if (calls_ == 0) // a restored system resumes from its image
            t_ = sys_->simulation().curTick();
        std::uint64_t a0 = allocationCount();
        std::int64_t t0 = nowNs();
        {
            SpanScope run(spans, "run");
            for (std::uint64_t n = 0;
                 !done_ && n < max_calls && t_ < kTickLimit; ++n) {
                t_ += quantum_;
                if (spans) {
                    double h0 = bridge.hostNs(), n0 = bridge.netNs();
                    int id = spans->begin("cosim.advanceCoupled");
                    bridge.advanceCoupled(t_);
                    spans->end(id);
                    spans->addInner(id, "cosim.host",
                                    bridge.hostNs() - h0);
                    spans->addInner(id, "cosim.net", bridge.netNs() - n0);
                    call_us_.push_back(
                        static_cast<double>(spans->durationNs(id)) /
                        1e3);
                } else {
                    bridge.advanceCoupled(t_);
                }
                ++calls_;
                done_ = sys_->allCoresDone() &&
                        sys_->memory().quiescent() && bridge.idle();
            }
        }
        run_s_ += static_cast<double>(nowNs() - t0) * 1e-9;
        allocs_ += allocationCount() - a0;
        return done_;
    }

    /** Everything a round reports, read after the run. */
    SystemRun
    collect(std::uint64_t ops_per_core) const
    {
        cosim::FullSystem &sys = *sys_;
        cosim::QuantumBridge &bridge = sys.bridge();
        SystemRun r;
        r.setup_s = setup_s_;
        r.run_s = run_s_;
        r.calls = calls_;
        r.allocs = allocs_;
        r.call_us = call_us_;
        r.quanta = bridge.quantaRun();
        r.end_tick = t_;
        r.finished = done_;
        r.quiescent = sys.memory().quiescent();
        r.packets = sys.packetsDelivered();
        r.mean_latency = sys.meanPacketLatency();
        r.events = sys.simulation().eventq().numProcessed();
        r.full_budget = true;
        for (std::size_t i = 0; i < sys.numCores(); ++i) {
            cpu::SyntheticCore &core = sys.core(i);
            auto ops = static_cast<std::uint64_t>(core.opsIssued.value());
            r.mem_ops += ops;
            r.full_budget = r.full_budget && ops == ops_per_core;
            r.finish = std::max(r.finish, core.finishTick());
        }
        mem::MemorySystem &mem = sys.memory();
        for (NodeId n = 0; n < mem.numNodes(); ++n) {
            r.l1_misses += static_cast<std::uint64_t>(
                mem.l1(n).loadMisses.value() +
                mem.l1(n).storeMisses.value());
            r.dir_requests += static_cast<std::uint64_t>(
                mem.directory(n).getSReceived.value() +
                mem.directory(n).getMReceived.value());
        }
        if (auto *an = sys.abstractNetwork()) {
            r.abs_packets =
                static_cast<std::uint64_t>(an->packetsDelivered.value());
            r.conserved = an->packetsInjected.value() ==
                          an->packetsDelivered.value();
        }
        if (auto *cn = sys.cycleNetwork()) {
            r.noc_packets = cn->deliveredCount();
            r.conserved = cn->injectedCount() == cn->deliveredCount();
            double hops = 0.0;
            for (std::size_t i = 0; i < cn->numNodes(); ++i)
                hops += cn->routerActivity(i).link_traversals;
            r.flit_hops = static_cast<std::uint64_t>(hops);
        }
        if (auto *rn = sys.remoteNetwork()) {
            r.noc_packets =
                static_cast<std::uint64_t>(rn->packetsDelivered.value());
            r.conserved = rn->packetsInjected.value() ==
                          rn->packetsDelivered.value();
            r.flit_hops = flit_hops_;
            r.round_trips =
                static_cast<std::uint64_t>(rn->rpcRoundTrips.value());
            r.elided = static_cast<std::uint64_t>(rn->elidedQuanta.value());
            r.spec_hits = static_cast<std::uint64_t>(rn->specHits.value());
            r.failed_ops += static_cast<std::uint64_t>(
                rn->reconnects.value() + rn->retries.value());
        }
        if (const cosim::HealthMonitor *h = bridge.health()) {
            r.failed_ops += static_cast<std::uint64_t>(
                h->degradedQuanta.value() + h->transportTrips.value());
        }
        std::ostringstream dump;
        stats::dumpText(dump, sys.simulation().statsRoot());
        r.stats_dump = dump.str();
        r.digest = simulatedDigest(r.stats_dump,
                                   r.finish * 1099511628211ULL + t_);
        return r;
    }

  private:
    std::unique_ptr<cosim::FullSystem> sys_;
    Tick quantum_ = 0;
    Tick t_ = 0;
    bool done_ = false;
    double setup_s_ = 0.0;
    double run_s_ = 0.0;
    std::uint64_t calls_ = 0;
    std::uint64_t allocs_ = 0;
    std::uint64_t flit_hops_ = 0;
    std::vector<double> call_us_;
};

/** One whole system round: construct, run to the end, collect. */
SystemRun
runSystem(const Config &cfg, std::uint64_t ops_per_core, Spans *spans)
{
    std::size_t from = spans ? spans->spans().size() : 0;
    SystemDriver d(cfg, spans);
    d.advance(spans);
    SystemRun r = d.collect(ops_per_core);
    if (spans)
        r.self = spans->selfSeconds(from);
    return r;
}

/** Samples every full-system metric of one round. */
void
sampleSystem(Samples &s, const SystemRun &r)
{
    s.add("setup_s", r.setup_s);
    s.add("run_s", r.run_s);
    s.add("sim_cycles_per_s", static_cast<double>(r.end_tick) / r.run_s);
    s.add("packets_per_s", static_cast<double>(r.packets) / r.run_s);
    s.add("alloc.per_quantum", static_cast<double>(r.allocs) /
                                   static_cast<double>(r.quanta));
    if (r.self.empty())
        return;
    auto self = [&](const char *name) {
        auto it = r.self.find(name);
        return it == r.self.end() ? 0.0 : it->second;
    };
    s.add("cosim.host_s", self("cosim.host"));
    s.add("cosim.net_s", self("cosim.net"));
    s.add("cosim.coupling_s", self("cosim.advanceCoupled"));
    s.add("trace.unattributed_s", self("run"));
    for (double us : r.call_us)
        s.add("cosim.quantum_us", us);
    s.add("sim.ns_per_event",
          self("cosim.host") * 1e9 / static_cast<double>(r.events));
    if (r.flit_hops)
        s.add("noc.ns_per_flit_hop", self("cosim.net") * 1e9 /
                                         static_cast<double>(r.flit_hops));
}

void
printRounds(const char *workload, const Samples &plain, int rounds,
            const std::string &work)
{
    std::fprintf(stderr,
                 "%s: %d rounds, median run_s %.6f s, setup_s %.6f s; "
                 "per round %s\n",
                 workload, rounds, plain.median("run_s"),
                 plain.median("setup_s"), work.c_str());
}

std::string
systemWork(const SystemRun &r)
{
    return std::to_string(r.end_tick) + " cycles, " +
           std::to_string(r.quanta) + " quanta, " +
           std::to_string(r.packets) + " packets, " +
           std::to_string(r.events) + " events";
}

/** Checks every full-system round must pass, whatever the workload. */
void
checkSystemRound(Report &rep, const SystemRun &r, const SystemRun &first,
                 const char *what)
{
    std::string w = what;
    rep.check(r.finished, w + ": run did not finish before the tick "
                              "limit");
    rep.check(r.quiescent, w + ": memory not quiescent at the end");
    rep.check(r.conserved, w + ": packets injected != packets "
                               "delivered");
    rep.check(r.digest == first.digest,
              w + ": simulated outputs differ between rounds (traced "
                  "and untraced runs must be identical)");
}

/**
 * Metrics common to the full-system workloads: end-to-end from the
 * untraced passes, per-layer from the traced ones (allocation counts
 * from the untraced passes, which the span recorder does not touch).
 */
void
reportSystem(Report &rep, const RunOptions &o, const Samples &plain,
             const Samples &traced, const SystemRun &r)
{
    auto &v = rep.values;
    if (!o.trace) {
        for (const char *m : {"run_s", "setup_s", "sim_cycles_per_s",
                              "packets_per_s"})
            v[m] = plain.median(m);
        return;
    }
    // Quantum percentiles pool every advanceCoupled call of every
    // traced round.
    v["cosim.quantum_us.p50"] = traced.percentile("cosim.quantum_us", 0.50);
    v["cosim.quantum_us.p99"] = traced.percentile("cosim.quantum_us", 0.99);
    for (const char *m :
         {"cosim.host_s", "cosim.net_s", "cosim.coupling_s",
          "sim.ns_per_event", "noc.ns_per_flit_hop",
          "trace.unattributed_s"})
        v[m] = traced.median(m);
    v["alloc.per_quantum"] = plain.median("alloc.per_quantum");
    v["cosim.quanta"] = static_cast<double>(r.quanta);
    v["sim.events"] = static_cast<double>(r.events);
    v["cpu.mem_ops"] = static_cast<double>(r.mem_ops);
    v["mem.l1_misses"] = static_cast<double>(r.l1_misses);
    v["mem.dir_requests"] = static_cast<double>(r.dir_requests);
    v["abstractnet.packets"] = static_cast<double>(r.abs_packets);
    v["noc.packets"] = static_cast<double>(r.noc_packets);
    v["noc.flit_hops"] = static_cast<double>(r.flit_hops);
}

/**
 * Tracing overhead and the layer-sum check: the traced run's layer
 * self times add up to its own run_s up to the unattributed time (run
 * loop glue and the recorder), which must stay within the measured
 * tracing overhead (or 2% of run_s, below which the two runs' medians
 * cannot be told apart).
 */
void
reportTraceOverhead(Report &rep, const Samples &plain,
                    const Samples &traced)
{
    double untraced_s = plain.median("run_s");
    double traced_s = traced.median("run_s");
    double unattributed = traced.median("trace.unattributed_s");
    rep.values["trace.run_s"] = traced_s;
    rep.values["trace.overhead_pct"] =
        (traced_s / untraced_s - 1.0) * 100.0;
    rep.values["trace.unattributed_s"] = unattributed;
    double tolerance = std::max(traced_s - untraced_s, 0.02 * traced_s);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "traced layer times leave %.6f s of run_s %.6f s "
                  "unattributed (tolerance %.6f s)",
                  unattributed, traced_s, tolerance);
    rep.check(unattributed <= tolerance, buf);
}

std::vector<std::pair<std::string, std::string>>
withMode(std::vector<std::pair<std::string, std::string>> keys,
         const char *mode)
{
    keys.emplace_back("system.mode", mode);
    return keys;
}

// ---------------------------------------------------------------------
// cosim-mesh8: reciprocal co-simulation of the E1-E6 accuracy target.
// ---------------------------------------------------------------------

void
runCosimMesh8(const RunOptions &o, Report &rep, Spans &spans)
{
    // The accuracy experiments' target: 8x8, 64 cores, a lean fabric
    // (1 VC/vnet, 2-flit buffers) and fast memory, so the network
    // carries real contention; radix is the write-heavy hotspot app.
    const std::vector<std::pair<std::string, std::string>> keys = {
        {"system.app", "radix"},
        {"system.ops_per_core", std::to_string(kMesh8Ops)},
        {"system.quantum", "256"},
        {"noc.columns", "8"},
        {"noc.rows", "8"},
        {"noc.vcs_per_vnet", "1"},
        {"noc.buffer_depth", "2"},
        {"mem.l1_sets", "32"},
        {"mem.dram_latency", "40"},
        {"mem.mshrs", "16"},
    };
    const Config cfg = makeConfig(withMode(keys, "cosim"), o);

    // The accuracy references: a Monolithic (quantum-1) run and the
    // static Abstract model on the same configuration and seed.
    auto referenceLatency = [&](const char *mode) {
        Config ref = makeConfig(withMode(keys, mode), o);
        cosim::FullSystem sys(ref,
                              cosim::FullSystemOptions::fromConfig(ref));
        sys.run(kTickLimit);
        return sys.meanPacketLatency();
    };
    const double mono = referenceLatency("monolithic");
    const double abstract = referenceLatency("abstract");

    Samples plain, traced;
    SystemRun first;
    bool have_first = false;
    int rounds = forRounds(o, spans, rep, [&](Spans *sp) {
        SystemRun r = runSystem(cfg, kMesh8Ops, sp);
        if (!have_first) {
            first = r;
            have_first = true;
        }
        checkSystemRound(rep, r, first, "cosim-mesh8");
        rep.check(r.full_budget,
                  "cosim-mesh8: a core did not issue its full op budget");
        sampleSystem(sp ? traced : plain, r);
        rep.attempted += r.quanta;
        rep.failed += r.failed_ops;
    });

    printRounds("cosim-mesh8", plain, rounds, systemWork(first));
    double err_cosim = std::abs(first.mean_latency - mono) / mono;
    double err_abstract = std::abs(abstract - mono) / mono;
    std::fprintf(stderr,
                 "cosim-mesh8: mean packet latency monolithic %.4f, "
                 "cosim %.4f (error %.2f%%), abstract %.4f (error "
                 "%.2f%%)\n",
                 mono, first.mean_latency, err_cosim * 100.0, abstract,
                 err_abstract * 100.0);
    rep.check(err_cosim < err_abstract,
              "cosim-mesh8: co-simulated latency error is not below "
              "the abstract model's");

    // Checkpoint round trip at the middle quantum: save the running
    // system, restore the image into fresh systems, and finish one of
    // them; it must end exactly as the uninterrupted run did.
    constexpr int kSaves = 5;
    constexpr int kRestores = 3;
    SystemDriver paused(cfg, nullptr);
    paused.advance(nullptr, first.calls / 2);
    Spans *sp = o.trace ? &spans : nullptr;
    std::vector<double> save_ms, restore_ms;
    std::string image;
    for (int i = 0; i < kSaves; ++i) {
        std::ostringstream os;
        std::int64_t t0 = nowNs();
        {
            SpanScope s(sp, "serialize.saveTo");
            paused.system().saveTo(os);
        }
        save_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        image = os.str();
    }
    std::unique_ptr<SystemDriver> resumed;
    bool restored = true;
    for (int i = 0; i < kRestores; ++i) {
        resumed.reset();
        auto d = std::make_unique<SystemDriver>(cfg, nullptr);
        std::string why;
        std::int64_t t0 = nowNs();
        {
            SpanScope s(sp, "serialize.restoreFromBytes");
            restored = d->system().restoreFromBytes(image, &why) &&
                       restored;
        }
        restore_ms.push_back(static_cast<double>(nowNs() - t0) / 1e6);
        if (!why.empty())
            std::fprintf(stderr, "cosim-mesh8: restore: %s\n",
                         why.c_str());
        resumed = std::move(d);
    }
    rep.check(restored, "cosim-mesh8: checkpoint image did not restore");
    paused.advance(nullptr);
    SystemRun whole = paused.collect(kMesh8Ops);
    rep.check(whole.digest == first.digest,
              "cosim-mesh8: saving a checkpoint changed the run");
    if (restored) {
        resumed->advance(nullptr);
        SystemRun tail = resumed->collect(kMesh8Ops);
        rep.check(tail.finish == whole.finish &&
                      tail.stats_dump == whole.stats_dump,
                  "cosim-mesh8: the run resumed from the mid-run "
                  "checkpoint ended differently (finish tick or stats "
                  "dump)");
    }

    reportSystem(rep, o, plain, traced, first);
    if (o.trace) {
        reportTraceOverhead(rep, plain, traced);
        rep.values["serialize.ckpt_bytes"] =
            static_cast<double>(image.size());
        rep.values["serialize.save_ms"] = median(save_ms);
        rep.values["serialize.restore_ms"] = median(restore_ms);
    }
}

// ---------------------------------------------------------------------
// tuned-mesh16: the reciprocally tuned abstract model on 256 cores.
// ---------------------------------------------------------------------

void
runTunedMesh16(const RunOptions &o, Report &rep, Spans &spans)
{
    // No detailed network: cores, L1 / directory / DRAM on the event
    // queue, and one bridge boundary per cycle carry the work.
    const Config cfg = makeConfig(
        {
            {"system.mode", "tuned"},
            {"system.app", "fft"},
            {"system.ops_per_core", std::to_string(kMesh16Ops)},
            {"noc.columns", "16"},
            {"noc.rows", "16"},
        },
        o);
    constexpr std::uint64_t cores = 16 * 16;

    Samples plain, traced;
    SystemRun first;
    bool have_first = false;
    int rounds = forRounds(o, spans, rep, [&](Spans *sp) {
        SystemRun r = runSystem(cfg, kMesh16Ops, sp);
        if (!have_first) {
            first = r;
            have_first = true;
        }
        checkSystemRound(rep, r, first, "tuned-mesh16");
        rep.check(r.mem_ops == cores * kMesh16Ops,
                  "tuned-mesh16: sum of opsIssued != cores x budget");
        sampleSystem(sp ? traced : plain, r);
        rep.attempted += r.quanta;
        rep.failed += r.failed_ops;
    });
    printRounds("tuned-mesh16", plain, rounds, systemWork(first));
    reportSystem(rep, o, plain, traced, first);
    if (o.trace)
        reportTraceOverhead(rep, plain, traced);
}

// ---------------------------------------------------------------------
// noc-ladder16: a standalone 16x16 CycleNetwork at three offered loads.
// ---------------------------------------------------------------------

/** One delivered packet, as recorded inside the timed section. */
struct Delivery
{
    PacketId id;
    NodeId src;
    NodeId dst;
    std::uint32_t hops;
    std::uint32_t size_bytes;
    Tick latency;
};

struct LoadRun
{
    double setup_s = 0.0;
    double run_s = 0.0;
    Tick cycles = 0;
    std::size_t routers = 0;
    std::uint64_t steps = 0;
    std::uint64_t allocs = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t digest = 0;
    std::map<std::string, double> self;
};

/**
 * Generate uniform-random traffic at load @p li of the ladder for
 * kLadderCycles, drain, and check every delivery against what the
 * fabric must do: exactly once, XY hop count, never faster than
 * zero-load.
 */
LoadRun
runLoad(const RunOptions &o, std::size_t li, Spans *sp, Report &rep)
{
    const Config cfg = makeConfig({{"noc.columns", "16"},
                                   {"noc.rows", "16"}},
                                  o);
    std::size_t from = sp ? sp->spans().size() : 0;
    LoadRun lr;
    std::int64_t t0 = nowNs();
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<noc::CycleNetwork> net;
    std::unique_ptr<workload::TrafficGenerator> gen;
    {
        SpanScope s(sp, "setup");
        sim = std::make_unique<Simulation>(cfg);
        noc::NocParams p = noc::NocParams::fromConfig(sim->config());
        net = std::make_unique<noc::CycleNetwork>(*sim, "noc", p);
        workload::TrafficGenerator::Options g;
        g.rate = kLadderLoads[li];
        g.data_frac = 0.3;
        gen = std::make_unique<workload::TrafficGenerator>(
            *net, p.columns, p.rows, g, Rng(o.seed, 0x1add0 + li));
    }
    lr.setup_s = static_cast<double>(nowNs() - t0) * 1e-9;
    const noc::NocParams &p = net->params();

    std::vector<Delivery> got;
    got.reserve(static_cast<std::size_t>(
        kLadderLoads[li] * 1.2 * static_cast<double>(kLadderCycles) *
        p.numNodes()));
    net->setDeliveryHandler([&got](const noc::PacketPtr &pkt) {
        got.push_back({pkt->id, pkt->src, pkt->dst, pkt->hops,
                       pkt->size_bytes, pkt->latency()});
    });

    Tick t = 0;
    std::uint64_t a0 = allocationCount();
    t0 = nowNs();
    {
        SpanScope run(sp, "run");
        while (t < kLadderCycles) {
            t += kLadderStep;
            {
                SpanScope s(sp, "workload.generateTo");
                gen->generateTo(t);
            }
            SpanScope s(sp, "noc.advanceTo");
            net->advanceTo(t);
            ++lr.steps;
        }
        while (!net->idle() && t < kLadderCycles + kLadderDrainLimit) {
            t += kLadderStep;
            SpanScope s(sp, "noc.advanceTo");
            net->advanceTo(t);
            ++lr.steps;
        }
    }
    lr.run_s = static_cast<double>(nowNs() - t0) * 1e-9;
    lr.allocs = allocationCount() - a0;
    lr.cycles = t;
    lr.routers = net->numNodes();
    if (sp)
        lr.self = sp->selfSeconds(from);

    // Output checks, made apart from the fabric from the recorded
    // deliveries and the network's parameters.
    const std::string what =
        std::string("noc-ladder16 ") + kLadderNames[li] + ": ";
    lr.generated = gen->generated();
    lr.delivered = got.size();
    rep.check(net->idle(), what + "network did not drain");
    rep.check(lr.delivered == lr.generated,
              what + "delivered != injected");
    std::vector<std::uint8_t> seen(lr.generated + 1, 0);
    std::uint64_t bad_id = 0, bad_hops = 0, too_fast = 0;
    std::uint64_t h = 1469598103934665603ULL;
    for (const Delivery &d : got) {
        if (d.id == 0 || d.id > lr.generated || seen[d.id]++)
            ++bad_id;
        int sx = static_cast<int>(d.src) % p.columns;
        int sy = static_cast<int>(d.src) / p.columns;
        int dx = static_cast<int>(d.dst) % p.columns;
        int dy = static_cast<int>(d.dst) / p.columns;
        auto manhattan =
            static_cast<std::uint32_t>(std::abs(sx - dx) + std::abs(sy - dy));
        if (d.hops != manhattan)
            ++bad_hops;
        // Zero-load latency: the source NIC and the first router take
        // pipeline_stages + 1 cycles, every further hop pipeline_stages
        // + link_latency - 1, and the tail trails the head by one
        // cycle per extra flit.
        std::uint32_t flits = noc::flitsForBytes(d.size_bytes, p.flit_bytes);
        Tick zero_load =
            static_cast<Tick>(p.pipeline_stages + 1) +
            static_cast<Tick>(manhattan) *
                static_cast<Tick>(p.pipeline_stages + p.link_latency - 1) +
            (flits - 1);
        if (d.latency < zero_load)
            ++too_fast;
        lr.flit_hops += static_cast<std::uint64_t>(flits) * d.hops;
        h = (h ^ (d.id * 0x9e3779b97f4a7c15ULL + d.latency)) *
            1099511628211ULL;
    }
    lr.digest = h;
    rep.check(bad_id == 0, what + std::to_string(bad_id) +
                               " deliveries not exactly once");
    rep.check(bad_hops == 0, what + std::to_string(bad_hops) +
                                 " packets off their XY route length");
    rep.check(too_fast == 0, what + std::to_string(too_fast) +
                                 " packets beat their zero-load latency");
    double link_traversals = 0.0;
    for (std::size_t i = 0; i < net->numNodes(); ++i)
        link_traversals += net->routerActivity(i).link_traversals;
    rep.check(static_cast<std::uint64_t>(link_traversals) == lr.flit_hops,
              what + "router link traversals != sum of flits x hops");
    return lr;
}

void
runNocLadder16(const RunOptions &o, Report &rep, Spans &spans)
{
    constexpr std::size_t kLoads = std::size(kLadderLoads);
    Samples plain, traced;
    std::vector<LoadRun> first;
    std::uint64_t flit_hops = 0, packets = 0;
    int rounds = forRounds(o, spans, rep, [&](Spans *sp) {
        Samples &s = sp ? traced : plain;
        double setup_s = 0.0, run_s = 0.0, cycles = 0.0, delivered = 0.0;
        double allocs = 0.0, steps = 0.0, gen_s = 0.0, adv_s = 0.0;
        double unattributed = 0.0;
        for (std::size_t li = 0; li < kLoads; ++li) {
            LoadRun lr = runLoad(o, li, sp, rep);
            if (first.size() < kLoads)
                first.push_back(lr);
            rep.check(lr.digest == first[li].digest,
                      std::string("noc-ladder16 ") + kLadderNames[li] +
                          ": deliveries differ between rounds (traced "
                          "and untraced runs must be identical)");
            setup_s += lr.setup_s;
            run_s += lr.run_s;
            cycles += static_cast<double>(lr.cycles);
            delivered += static_cast<double>(lr.delivered);
            allocs += static_cast<double>(lr.allocs);
            steps += static_cast<double>(lr.steps);
            rep.attempted += lr.steps;
            std::string n = kLadderNames[li];
            s.add("noc.mrouter_cycles_per_s." + n,
                  static_cast<double>(lr.cycles) *
                      static_cast<double>(lr.routers) / lr.run_s / 1e6);
            s.add("noc.ns_per_flit_hop." + n,
                  lr.run_s * 1e9 / static_cast<double>(lr.flit_hops));
            if (sp) {
                gen_s += lr.self["workload.generateTo"];
                adv_s += lr.self["noc.advanceTo"];
                unattributed += lr.self["run"];
            }
        }
        s.add("setup_s", setup_s);
        s.add("run_s", run_s);
        s.add("sim_cycles_per_s", cycles / run_s);
        s.add("packets_per_s", delivered / run_s);
        s.add("alloc.per_quantum", allocs / steps);
        if (sp) {
            s.add("workload.generate_s", gen_s);
            s.add("noc.advance_s", adv_s);
            s.add("trace.unattributed_s", unattributed);
        }
    });
    Tick cycles = 0;
    for (const LoadRun &lr : first) {
        flit_hops += lr.flit_hops;
        packets += lr.delivered;
        cycles += lr.cycles;
    }
    printRounds("noc-ladder16", plain, rounds,
                std::to_string(cycles) + " cycles, " +
                    std::to_string(packets) + " packets, " +
                    std::to_string(flit_hops) + " flit-hops");

    auto &v = rep.values;
    if (!o.trace) {
        for (const char *m : {"run_s", "setup_s", "sim_cycles_per_s",
                              "packets_per_s"})
            v[m] = plain.median(m);
        return;
    }
    for (const char *n : kLadderNames) {
        for (std::string m : {"noc.mrouter_cycles_per_s.",
                              "noc.ns_per_flit_hop."})
            v[m + n] = traced.median(m + n);
    }
    v["workload.generate_s"] = traced.median("workload.generate_s");
    v["noc.advance_s"] = traced.median("noc.advance_s");
    v["noc.ns_per_flit_hop"] = traced.median("noc.advance_s") * 1e9 /
                               static_cast<double>(flit_hops);
    v["noc.packets"] = static_cast<double>(packets);
    v["noc.flit_hops"] = static_cast<double>(flit_hops);
    v["alloc.per_quantum"] = plain.median("alloc.per_quantum");
    reportTraceOverhead(rep, plain, traced);
}

// ---------------------------------------------------------------------
// remote-lane4: the 4x4 cosim lane against a rasim-nocd server.
// ---------------------------------------------------------------------

void
runRemoteLane4(const RunOptions &o, Report &rep, Spans &spans)
{
    // Many small quanta, so framing, pipelining / elision and the
    // periodic checkpoint base (every network.remote.ckpt_quanta) weigh
    // most. The server runs on a thread of this process over a Unix
    // socket: three threads in all (this one, the acceptor, the
    // session).
    const std::vector<std::pair<std::string, std::string>> keys = {
        {"system.mode", "cosim"},
        {"system.app", "lu"},
        {"system.ops_per_core", std::to_string(kLane4Ops)},
        {"system.quantum", "64"},
        {"noc.columns", "4"},
        {"noc.rows", "4"},
        {"mem.l1_sets", "16"},
    };
    const std::string socket = "unix:" + o.out_dir + "/perfbench-nocd-" +
                               std::to_string(::getpid()) + ".sock";
    std::vector<std::pair<std::string, std::string>> remote_keys = keys;
    remote_keys.emplace_back("network.backend", "remote");
    remote_keys.emplace_back("remote.socket", socket);
    const Config inproc_cfg = makeConfig(keys, o);
    const Config remote_cfg = makeConfig(remote_keys, o);

    ipc::NocServerOptions so;
    so.address = socket;
    ipc::NocServer server(so);
    std::thread server_thread([&server] { server.run(); });
    struct Joiner
    {
        ipc::NocServer &server;
        std::thread &thread;
        ~Joiner()
        {
            server.stop();
            thread.join();
        }
    } joiner{server, server_thread};

    Samples plain, traced;
    SystemRun first_remote, first_inproc;
    bool have_first = false;
    int rounds = forRounds(o, spans, rep, [&](Spans *sp) {
        // The in-process run of the same configuration is both the
        // reference the remote run must match and the base of the
        // per-quantum RPC overhead; it is never traced.
        SystemRun local = runSystem(inproc_cfg, kLane4Ops, nullptr);
        SystemRun r = runSystem(remote_cfg, kLane4Ops, sp);
        if (!have_first) {
            first_remote = r;
            first_inproc = local;
            have_first = true;
        }
        checkSystemRound(rep, local, first_inproc, "remote-lane4 inproc");
        checkSystemRound(rep, r, first_remote, "remote-lane4");
        rep.check(r.finish == local.finish &&
                      r.packets == local.packets &&
                      r.mean_latency == local.mean_latency,
                  "remote-lane4: finish tick, delivered count or mean "
                  "latency differ from the in-process run");
        rep.check(r.failed_ops == 0,
                  "remote-lane4: reconnects, retries or degraded quanta");
        Samples &s = sp ? traced : plain;
        sampleSystem(s, r);
        s.add("ipc.overhead_us_per_quantum",
              (r.run_s - local.run_s) * 1e6 / static_cast<double>(r.quanta));
        rep.attempted += r.quanta;
        rep.failed += r.failed_ops;
    });

    printRounds("remote-lane4", plain, rounds, systemWork(first_remote));
    reportSystem(rep, o, plain, traced, first_remote);
    if (o.trace) {
        reportTraceOverhead(rep, plain, traced);
        rep.values["ipc.round_trips"] =
            static_cast<double>(first_remote.round_trips);
        rep.values["ipc.elided_quanta"] =
            static_cast<double>(first_remote.elided);
        rep.values["ipc.spec_hits"] =
            static_cast<double>(first_remote.spec_hits);
        rep.values["ipc.overhead_us_per_quantum"] =
            plain.median("ipc.overhead_us_per_quantum");
    }
}

} // namespace

Report
runWorkload(const RunOptions &o)
{
    Report rep;
    Spans spans;
    if (o.workload == "cosim-mesh8")
        runCosimMesh8(o, rep, spans);
    else if (o.workload == "tuned-mesh16")
        runTunedMesh16(o, rep, spans);
    else if (o.workload == "noc-ladder16")
        runNocLadder16(o, rep, spans);
    else if (o.workload == "remote-lane4")
        runRemoteLane4(o, rep, spans);
    else
        throw std::invalid_argument("unknown workload '" + o.workload +
                                    "'");
    if (o.trace) {
        std::string path = o.out_dir + "/trace-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".json";
        if (spans.writeChromeJson(path))
            std::fprintf(stderr, "wrote %s (%zu spans)\n", path.c_str(),
                         spans.spans().size());
        else
            rep.check(false, "could not write " + path);
    }
    return rep;
}

} // namespace perfbench
