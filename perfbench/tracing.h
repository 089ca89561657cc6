/**
 * @file
 * Out-of-program tracing for the benchmark's traced run. Nothing here
 * touches the simulator's sources: the benchmark wraps the calls it
 * makes into each layer (component groups registered with the
 * Simulator, a forwarding CodecSystem, the traffic source, trace
 * generation) and records one span per wrapped call group.
 *
 * Spans nest; a layer's self time is its spans' duration minus the part
 * covered by child spans. Aggregates are folded as each span closes, so
 * memory stays bounded however long the run is; the first kKeptSpans
 * raw spans are also kept and written out at the end.
 */
#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compression/codec.h"
#include "sim/clocked.h"

namespace perfbench {

enum Layer : int {
    kSim,      ///< the Simulator loop (runUntil / run)
    kTraceGen, ///< kernel run through the cache model (workloads + cache)
    kTraffic,  ///< TraceReplay / SyntheticTraffic evaluate+advance
    kNi,       ///< every NetworkInterface, one span per phase sweep
    kRouter,   ///< every Router, one span per phase sweep
    kNetwork,  ///< Network::evaluate/advance (delivery, notification drain)
    kEncode,   ///< CodecSystem encode entry points
    kDecode,   ///< CodecSystem decode entry points
    kReplay,   ///< one harness grid point
    kWrite,    ///< harness artifact writing
    kProbe,    ///< the tracer's own sampled router occupancy probe
    kLayerCount,
};

const char *layer_name(Layer l);

/** Nested span recorder with per-layer total and self time. */
class SpanRecorder
{
  public:
    static constexpr std::size_t kKeptSpans = 50000;

    struct Span {
        Layer layer;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int64_t parent; ///< index of the parent span, -1 = none kept
    };

    void begin(Layer l) { open(l, nowNs()); }
    void end() { close(nowNs()); }

    /**
     * Close the open chained span, if any, and open @p l at the same
     * instant: one clock read per hand-off between back-to-back
     * component groups instead of two.
     */
    void chain(Layer l);
    /** Close the open chained span now. */
    void unchain();

    double totalS(Layer l) const { return total_ns_[l] * 1e-9; }
    double selfS(Layer l) const { return self_ns_[l] * 1e-9; }

    /** Forget the aggregates (kept raw spans stay). */
    void resetTotals();

    /** Write the kept spans as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Frame {
        Layer layer;
        std::int64_t start_ns;
        std::int64_t child_ns;
        std::int64_t id;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void open(Layer l, std::int64_t t);
    void close(std::int64_t t);

    std::vector<Frame> stack_;
    bool chained_ = false; ///< the top frame was opened by chain()
    std::vector<Span> spans_;
    std::array<std::int64_t, kLayerCount> total_ns_{};
    std::array<std::int64_t, kLayerCount> self_ns_{};
};

/** RAII span. */
class Scope
{
  public:
    Scope(SpanRecorder &rec, Layer l) : rec_(rec) { rec_.begin(l); }
    ~Scope() { rec_.end(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &rec_;
};

/**
 * Steps a fixed list of components as one timed group: one span per
 * evaluate sweep and one per advance sweep. Registered with the
 * Simulator in place of the members, in the members' own order, so the
 * call sequence the simulator sees is unchanged.
 *
 * The groups of one simulator sweep run back to back, so their spans
 * are chained (SpanRecorder::chain); the group registered last closes
 * the chain after its advance sweep.
 */
class TimedGroup : public approxnoc::Clocked
{
  public:
    /** Probe every kProbeEvery-th cycle; the tracer's own cost. */
    static constexpr approxnoc::Cycle kProbeEvery = 16;

    TimedGroup(SpanRecorder &rec, Layer layer,
               std::vector<approxnoc::Clocked *> members, bool last = false)
        : Clocked(std::string("perfbench.") + layer_name(layer)), rec_(rec),
          layer_(layer), members_(std::move(members)), last_(last)
    {}

    /** Run @p probe (under kProbe) before every kProbeEvery-th evaluate. */
    void setProbe(std::function<void()> probe) { probe_ = std::move(probe); }

    void evaluate(approxnoc::Cycle now) override;
    void advance(approxnoc::Cycle now) override;

  private:
    SpanRecorder &rec_;
    Layer layer_;
    std::vector<approxnoc::Clocked *> members_;
    bool last_;
    std::function<void()> probe_;
};

/** Encode/decode outcome counts seen through the forwarding codec. */
struct CodecTally {
    std::uint64_t encode_blocks = 0;
    std::uint64_t decode_blocks = 0;
    std::uint64_t words = 0;
    std::uint64_t exact_words = 0;
    std::uint64_t approx_words = 0;
    std::uint64_t drain_calls = 0;
    std::uint64_t notifications = 0;
};

/**
 * Forwarding CodecSystem: every call goes to the wrapped codec. Encode
 * and decode calls are timed one by one; drainNotifications is only
 * counted, since one call is shorter than a clock read.
 */
class TimedCodec : public approxnoc::CodecSystem
{
  public:
    TimedCodec(approxnoc::CodecSystem &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {}

    const CodecTally &tally() const { return tally_; }

    approxnoc::Scheme scheme() const override { return inner_.scheme(); }

    approxnoc::EncodedBlock encode(const approxnoc::DataBlock &block,
                                   approxnoc::NodeId src,
                                   approxnoc::NodeId dst,
                                   approxnoc::Cycle now) override;
    approxnoc::EncodedBlock encodeBlock(const approxnoc::DataBlock &block,
                                        approxnoc::NodeId src,
                                        approxnoc::NodeId dst,
                                        approxnoc::Cycle now) override;
    approxnoc::EncodedBlock encodeSpan(const approxnoc::DataBlock &block,
                                       approxnoc::NodeId src,
                                       approxnoc::NodeId dst,
                                       approxnoc::Cycle now,
                                       approxnoc::Arena &arena) override;
    approxnoc::DataBlock decode(const approxnoc::EncodedBlock &enc,
                                approxnoc::NodeId src, approxnoc::NodeId dst,
                                approxnoc::Cycle now) override;
    approxnoc::DataBlock decodeBlock(const approxnoc::EncodedBlock &enc,
                                     approxnoc::NodeId src,
                                     approxnoc::NodeId dst,
                                     approxnoc::Cycle now) override;
    approxnoc::DecodedSpan decodeSpan(const approxnoc::EncodedBlock &enc,
                                      approxnoc::NodeId src,
                                      approxnoc::NodeId dst,
                                      approxnoc::Cycle now,
                                      approxnoc::Arena &arena) override;

    approxnoc::Cycle
    compressionLatency() const override
    {
        return inner_.compressionLatency();
    }
    approxnoc::Cycle
    decompressionLatency() const override
    {
        return inner_.decompressionLatency();
    }

    std::vector<Notification> drainNotifications(approxnoc::NodeId dst) override;

    std::uint64_t
    consistencyMismatches() const override
    {
        return inner_.consistencyMismatches();
    }
    std::uint8_t rawKind() const override { return inner_.rawKind(); }
    approxnoc::CodecActivity
    activity() const override
    {
        return inner_.activity();
    }
    bool
    setErrorThreshold(double e) override
    {
        return inner_.setErrorThreshold(e);
    }
    void
    bindCounters(const approxnoc::CodecCounters &c) override
    {
        inner_.bindCounters(c);
    }
    void
    bindErrorProfile(approxnoc::telemetry::ErrorProfile *qor) override
    {
        inner_.bindErrorProfile(qor);
    }
    void
    bindProfiler(approxnoc::telemetry::PhaseProfiler *prof) override
    {
        inner_.bindProfiler(prof);
    }

  private:
    approxnoc::EncodedBlock tallyEncoded(approxnoc::EncodedBlock enc);

    approxnoc::CodecSystem &inner_;
    SpanRecorder &rec_;
    CodecTally tally_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
