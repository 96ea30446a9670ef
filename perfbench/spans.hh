/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * taken in the benchmark's own code around each call into a simulator
 * layer (system construction, QuantumBridge::advanceCoupled,
 * TrafficGenerator::generateTo, CycleNetwork::advanceTo, checkpoint
 * save / restore), kept in memory, and written once at the end as
 * Chrome trace-event JSON (loads in chrome://tracing or Perfetto).
 *
 * A span may also carry "child time" measured inside the layer by the
 * program itself (the bridge's hostNs() / netNs() deltas); that time
 * counts as covered by children when the span's self time is taken.
 */

#ifndef RASIM_PERFBENCH_SPANS_HH
#define RASIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Spans
{
  public:
    struct Span
    {
        const char *name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        /** Index of the enclosing span, -1 at the top. */
        int parent = -1;
        /** Named child times measured inside the layer (ns). */
        std::vector<std::pair<const char *, double>> inner;
    };

    /** Open a span now; returns its index. */
    int begin(const char *name);
    /** Close span @p id and any span still open inside it. */
    void end(int id);
    /** Attach a layer-internal child time to span @p id. */
    void addInner(int id, const char *name, double ns);

    const std::vector<Span> &spans() const { return spans_; }
    std::int64_t durationNs(int id) const;

    /**
     * Self time per span name, in seconds, over spans opened at index
     * @p from or later: each span's duration minus the part its child
     * spans and inner child times cover. Inner child times are
     * reported under their own names.
     */
    std::map<std::string, double> selfSeconds(std::size_t from = 0) const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, const char *name)
        : spans_(spans), id_(spans ? spans->begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (spans_)
            spans_->end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans *spans_;
    int id_;
};

} // namespace perfbench

#endif // RASIM_PERFBENCH_SPANS_HH
