/**
 * @file
 * Structure-of-arrays kernel for the buffered VC network.
 *
 * All per-router/per-port/per-VC state — VC state machines, arbiter
 * pointers, credits, in-flight flit slots and link shift registers —
 * lives in flat, contiguous, index-addressed arrays instead of
 * pointer-linked Router/Nic/Link objects. The RC/VA/SA/ST+LT stages
 * run as batched passes over an active-node worklist rebuilt each
 * cycle from per-node occupancy blocks (see active_scan.hh); nodes
 * with no buffered flits, queued packets or in-flight link traffic
 * are provably no-ops and are skipped entirely.
 *
 * VC and switch allocation are bitmask allocators: per-port words of
 * SA candidates, VA requesters and free output VCs, with every
 * round-robin arbiter resolved as "first set bit at or after the
 * cursor, else the lowest set bit" (std::countr_zero). That is the
 * exact winner the object backend's modular scan finds, so grant
 * order — and with it every result — is unchanged.
 *
 * Determinism: each pass executes the exact same per-node operation
 * sequence as the object backend (same arbiter rotations, same
 * iteration order inside a node), and phases only touch
 * partition-local state plus the single-writer ends of links — so
 * results are bit-identical to the object backend on deliveries,
 * stats and archive bytes, under serial and parallel engines alike.
 *
 * Occupancy single-writer discipline (TSan-clean without atomics):
 * every occupancy word has exactly one writing node per phase —
 * compute-block words are written only by their own node; a
 * commit-block word for an input port is incremented only by the
 * one upstream sender (compute) and decremented only by the owner
 * (commit). Worklists are rebuilt sequentially between phases.
 */

#ifndef RASIM_NOC_KERNEL_SOA_CYCLE_HH
#define RASIM_NOC_KERNEL_SOA_CYCLE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/kernel/active_scan.hh"
#include "noc/kernel/backend.hh"
#include "sim/cpuid.hh"
#include "sim/flat_map.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

class SoaCycleFabric : public CycleFabric
{
  public:
    SoaCycleFabric(stats::Group *parent, const NocParams &params,
                   const Topology &topo,
                   const RoutingAlgorithm &routing);

    const char *kindName() const override { return "soa"; }
    std::string description() const override;

    void enqueue(std::size_t node, const PacketPtr &pkt,
                 Cycle now) override;
    void compute(StepEngine &engine, Cycle now,
                 const std::vector<char> &stalled) override;
    void commit(StepEngine &engine, Cycle now,
                const std::vector<char> &stalled) override;
    std::vector<PacketPtr> &completed(std::size_t node) override;
    RouterActivity routerActivity(std::size_t node) const override;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    cpuid::SimdLevel simdLevel() const { return simd_; }

    /** Widest router the kernel's fixed-width state holds: ports per
     *  router (occupancy-block layout), VCs per port (one request
     *  word) and flits per VC buffer (16-bit FIFO cursors). */
    static constexpr int max_ports = 5;
    static constexpr int max_vcs = 64;
    static constexpr int max_buffer_depth = 65535;

    /** fatal() (SimError(Config) under a ThrowOnError guard) unless a
     *  router of this geometry fits the limits above; the message
     *  names network.kernel=object, which has none of them. */
    static void checkGeometry(const std::string &topology, int ports,
                              int total_vcs, int buffer_depth);

  private:
    /** One bit per VC of a port (bit v = VC v). */
    using VcMask = std::uint64_t;

    /** Numeric values match Router::VcState for archive bytes. */
    static constexpr std::uint8_t vc_idle = 0;
    static constexpr std::uint8_t vc_need_va = 1;
    static constexpr std::uint8_t vc_active = 2;

    /** Compute-block word layout (8 u32 per node). */
    static constexpr int occ_buffered = 0;   ///< flits in input FIFOs
    static constexpr int occ_nic_queued = 1; ///< flits in NIC queues
    static constexpr int occ_inj_credits = 2; ///< credits on inj link
    static constexpr std::size_t compute_words = 8;
    /** Commit-block word layout (16 u32 per node): [0,P) in-port
     *  flits, [5,5+P) out-port credits, 10 ejection-link flits. */
    static constexpr int occ_out_credit_base = max_ports;
    static constexpr int occ_ej_flits = 2 * max_ports;
    static constexpr std::size_t commit_words = 16;

    struct TimedFlit
    {
        Cycle cycle = 0;
        Flit flit;
    };

    struct TimedCredit
    {
        Cycle cycle = 0;
        std::int16_t vc = 0;
    };

    /**
     * A link's two pipelines as fixed-capacity rings. Capacity is the
     * provable bound totalVcs * buffer_depth + latency + 2 (credit
     * conservation caps in-flight flits and outstanding credits at
     * the downstream buffer pool size). The occ pointers address the
     * occupancy word of each pipeline's consumer; push/pop helpers
     * keep them in sync.
     */
    struct SoaLink
    {
        int latency = 1;
        std::uint32_t fhead = 0, fsize = 0;
        std::uint32_t chead = 0, csize = 0;
        std::uint32_t cap = 0; ///< power of two; shared by both rings
        std::vector<TimedFlit> flits;
        std::vector<TimedCredit> credits;
        std::uint32_t *flit_occ = nullptr;
        std::uint32_t *cred_occ = nullptr;
    };

    /** Growable power-of-two ring for NIC injection queues: amortised
     *  allocation only up to the high-water mark, then steady-state
     *  allocation-free. */
    struct FlitRing
    {
        std::vector<Flit> buf;
        std::uint32_t head = 0, size = 0;

        Flit &front() { return buf[head]; }
        const Flit &at(std::uint32_t k) const
        {
            return buf[(head + k) & (buf.size() - 1)];
        }

        void
        push(Flit f)
        {
            if (size == buf.size())
                grow();
            buf[(head + size) & (buf.size() - 1)] = std::move(f);
            ++size;
        }

        Flit
        pop()
        {
            Flit f = std::move(buf[head]);
            head = (head + 1) & (buf.size() - 1);
            --size;
            return f;
        }

        void grow();
    };

    struct RouterStats : stats::Group
    {
        RouterStats(stats::Group *parent, int id);
        stats::Scalar flitsRouted;
        stats::Scalar bufferWrites;
        stats::Scalar linkTraversals;
    };

    struct NicStats : stats::Group
    {
        NicStats(stats::Group *parent, int node);
        stats::Scalar flitsSent;
        stats::Scalar flitsReceived;
    };

    // Index helpers over the flat arrays.
    std::size_t pi(int node, int port) const
    {
        return static_cast<std::size_t>(node) * P_ + port;
    }
    std::size_t vi(int node, int port, int vc) const
    {
        return pi(node, port) * V_ + vc;
    }
    static VcMask bit(int vc) { return VcMask{1} << vc; }

    // Link pipelines (occupancy maintained inside).
    void pushFlit(SoaLink &l, Cycle now, Flit f);
    bool flitReady(const SoaLink &l, Cycle now) const
    {
        return l.fsize > 0 &&
               l.flits[l.fhead].cycle <= now;
    }
    Flit popFlit(SoaLink &l);
    void pushCredit(SoaLink &l, Cycle now, int vc);
    bool creditReady(const SoaLink &l, Cycle now) const
    {
        return l.csize > 0 && l.credits[l.chead].cycle <= now;
    }
    int popCredit(SoaLink &l);

    // Per-node stages (transliterations of Nic/Router per-cycle code).
    void nicCompute(int i, Cycle now);
    void routerComputeVa(int i);
    int saNominee(int i, int p, Cycle now) const;
    void routerComputeSa(int i, Cycle now);
    void routerCommit(int i, Cycle now);
    void nicCommit(int i, Cycle now);

    int selectOutputPort(int i, const Flit &head,
                         const std::vector<int> &cand,
                         int in_port) const;
    std::uint8_t nextVcClass(int i, const Flit &head,
                             int out_port) const;
    static std::uint8_t dimOf(int port);
    int allocateOutVc(int i, int out_port, int vnet, int cls);

    void setNeedVa(int i, int p, int v);
    void restoreRouter(int i, ArchiveReader &ar,
                       const PacketTable &table);
    void restoreNic(int i, ArchiveReader &ar, const PacketTable &table);
    void flushNodeStats(int i);
    /** Request words and occupancy blocks from the restored state. */
    void rebuildDerivedState();

    const NocParams &params_;
    const Topology &topo_;
    const RoutingAlgorithm &routing_;
    int n_ = 0, P_ = 0, V_ = 0, D_ = 0, C_ = 0;
    int W_ = 0;            ///< VCs per (vnet, class) pool
    VcMask pool_mask_ = 0; ///< low W_ bits
    cpuid::SimdLevel simd_ = cpuid::SimdLevel::Scalar;
    ActiveScanFn scan_ = nullptr;

    // Input VC state [n*P*V].
    std::vector<std::uint8_t> ivc_state_;
    std::vector<std::int16_t> ivc_out_port_;
    std::vector<std::int16_t> ivc_out_vc_;
    std::vector<std::uint8_t> ivc_out_class_;
    std::vector<std::uint8_t> ivc_out_dim_;
    // Input FIFOs: flat rings of depth D [n*P*V*D].
    std::vector<Flit> fifo_;
    std::vector<std::uint16_t> fifo_head_;
    std::vector<std::uint16_t> fifo_size_;
    // Allocator request words, kept in step with ivc_state_ and the
    // FIFO sizes by every stage that changes them. [n*P]: VCs that
    // are active with a non-empty FIFO (SA candidates) and VCs in
    // vc_need_va; [n]: input ports with a non-zero need_va_ word.
    std::vector<VcMask> sa_cand_;
    std::vector<VcMask> need_va_;
    std::vector<std::uint32_t> need_va_ports_;
    // Per-port arbiter cursors [n*P], per-pool VA cursors [n*P*C].
    std::vector<std::int32_t> ip_sa_rr_;
    std::vector<std::int32_t> op_sa_rr_;
    std::vector<std::int32_t> op_va_rr_;
    // Output VC state: free (not held by a packet) VCs per output
    // port [n*P], credits per output VC [n*P*V].
    std::vector<VcMask> ovc_free_;
    std::vector<std::int32_t> ovc_credits_;
    // Wiring: link index per (node, port), -1 when unconnected [n*P].
    std::vector<std::int32_t> in_link_;
    std::vector<std::int32_t> out_link_;
    std::vector<SoaLink> links_;

    // NIC state.
    std::vector<FlitRing> nicq_;              ///< [n*num_vnets]
    std::vector<std::int32_t> nicq_cur_vc_;   ///< [n*num_vnets]
    std::vector<std::uint8_t> inj_busy_;      ///< [n*V]
    std::vector<std::int32_t> inj_credits_;   ///< [n*V]
    std::vector<std::int32_t> nic_va_rr_;     ///< [n*num_vnets]
    std::vector<std::int32_t> nic_rr_vnet_;   ///< [n]
    std::vector<std::uint64_t> nic_queued_;   ///< [n]
    std::vector<FlatMap<PacketId, std::uint32_t>> rx_; ///< [n]
    std::vector<std::vector<PacketPtr>> completed_;    ///< [n]

    // Occupancy blocks + per-cycle worklists.
    std::vector<std::uint32_t> compute_occ_; ///< [n*compute_words]
    std::vector<std::uint32_t> commit_occ_;  ///< [n*commit_words]
    std::vector<int> compute_list_;
    std::vector<int> commit_list_;

    // Phase arguments parked in members so the forRange lambda only
    // captures `this` (8 bytes): a fatter capture spills std::function
    // past its inline buffer and costs a heap allocation per phase.
    // Set before the engine call, read-only inside the phase.
    Cycle phase_now_ = 0;
    int phase_va_start_ = 0; ///< now mod P: VA's first input port
    const std::vector<char> *phase_stalled_ = nullptr;

    // Per-node route scratch (reserved; no steady-state allocation).
    std::vector<std::vector<int>> route_scratch_;

    // Per-cycle stat deltas [n], flushed sequentially after commit so
    // checkpoint-visible Scalars match the object backend exactly.
    struct NodeDeltas
    {
        std::uint64_t flits_routed = 0;
        std::uint64_t buffer_writes = 0;
        std::uint64_t link_traversals = 0;
        std::uint64_t flits_sent = 0;
        std::uint64_t flits_received = 0;
    };
    std::vector<NodeDeltas> deltas_;

    std::vector<std::unique_ptr<RouterStats>> router_stats_;
    std::vector<std::unique_ptr<NicStats>> nic_stats_;
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_SOA_CYCLE_HH
