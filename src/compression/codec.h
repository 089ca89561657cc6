/**
 * @file
 * CodecSystem: the abstract encoder/decoder pair the APPROX-NoC
 * framework plugs into every network interface. A single CodecSystem
 * instance models the distributed state of *all* nodes' encoders and
 * decoders (dictionary schemes keep per-node tables inside).
 */
#ifndef APPROXNOC_COMPRESSION_CODEC_H
#define APPROXNOC_COMPRESSION_CODEC_H

#include <cstdint>
#include <vector>

#include "common/data_block.h"
#include "common/types.h"

#include "compression/encoded.h"

namespace approxnoc {

namespace telemetry {
class ErrorProfile;
class PhaseProfiler;
} // namespace telemetry

class Arena;
class EncodedBlock;

/**
 * View of a decoded block, returned by the decodeSpan() forwarder: the
 * words live in the Arena the caller passed and stay valid until that
 * arena is reset. Carries the same metadata as DataBlock without
 * owning storage.
 */
struct DecodedSpan {
    const Word *data = nullptr;
    std::size_t size = 0;
    DataType type = DataType::Raw;
    bool approximable = false;

    Word
    word(std::size_t i) const
    {
        return data[i];
    }
};

/** The parameter of the no-op bindCounters() forwarder; empty. */
struct CodecCounters {};

/** Default codec pipeline latencies (paper Sec. 4.3, after [12]). */
inline constexpr Cycle kCompressionLatency = 3;   ///< 2 match + 1 encode
inline constexpr Cycle kDecompressionLatency = 2;

/** Aggregate codec hardware activity, input to the power model. */
struct CodecActivity {
    std::uint64_t words_encoded = 0;
    std::uint64_t words_decoded = 0;
    std::uint64_t cam_searches = 0;
    std::uint64_t cam_writes = 0;
    std::uint64_t tcam_searches = 0;
    std::uint64_t tcam_writes = 0;
    std::uint64_t avcl_ops = 0;
};

/**
 * Abstract compression system. encode() runs at the source NI for a
 * block headed src -> dst; decode() runs at the destination NI.
 * Dictionary schemes are stateful and time-aware (update notifications
 * apply after a delay), hence the @p now parameters.
 *
 * ## Where the state lives
 *
 * Encoder-side mutable state is keyed by the *source* endpoint: the
 * dictionary schemes keep one PMT (CAM/TCAM plus replacement
 * metadata) per encoder node, the adaptive wrapper one mode window
 * per sender, and the stateless schemes no per-call state at all.
 * Decoder-side mutable state is keyed by the *destination* endpoint:
 * the dictionary schemes keep one decoder PMT, candidate tracker,
 * stale-mapping table and notification queue per destination node.
 * So each NI touches only its own endpoint's state, encoding as
 * @p src and decoding as @p dst.
 *
 * Decoder updates reach an encoder through one queue per encoder,
 * applied in send order (see DictionaryCodecBase::applyPending), and
 * every notification a decoder emits carries a per-destination
 * monotonic sequence number, so each drainNotifications(dst) stream is
 * a pure function of that destination's decode history.
 */
class CodecSystem
{
  public:
    virtual ~CodecSystem() = default;

    CodecSystem() = default;
    CodecSystem(const CodecSystem &) = delete;
    CodecSystem &operator=(const CodecSystem &) = delete;

    /** Which paper scheme this system implements. */
    virtual Scheme scheme() const = 0;

    /**
     * Encode @p block at node @p src for destination @p dst. Each
     * scheme has exactly one encode body, and every consumer (NI,
     * cache, harness, benches) calls it.
     */
    virtual EncodedBlock encode(const DataBlock &block, NodeId src,
                                NodeId dst, Cycle now) = 0;

    /**
     * Decode @p enc at node @p dst, received from @p src. Each scheme
     * has exactly one decode body, and every consumer calls it.
     */
    virtual DataBlock decode(const EncodedBlock &enc, NodeId src,
                             NodeId dst, Cycle now) = 0;

    /**
     * @name Forwarders
     * Older entry points, kept only because the repository benchmark's
     * forwarding codec (perfbench/tracing.h) overrides them. No scheme
     * overrides them and nothing in the simulator calls them. The four
     * coding forwarders return exactly what encode()/decode() return,
     * with the same side effects; bindErrorProfile and bindCounters do
     * nothing.
     * @{
     */
    virtual EncodedBlock
    encodeBlock(const DataBlock &block, NodeId src, NodeId dst, Cycle now)
    {
        return encode(block, src, dst, now);
    }

    /** encodeBlock(); @p arena is unused, the block is heap-backed. */
    virtual EncodedBlock
    encodeSpan(const DataBlock &block, NodeId src, NodeId dst, Cycle now,
               Arena &arena)
    {
        (void)arena;
        return encodeBlock(block, src, dst, now);
    }

    virtual DataBlock
    decodeBlock(const EncodedBlock &enc, NodeId src, NodeId dst, Cycle now)
    {
        return decode(enc, src, dst, now);
    }

    /** decodeBlock(), with the words copied into @p arena and returned
     * as a view that stays valid until the arena is reset. */
    virtual DecodedSpan decodeSpan(const EncodedBlock &enc, NodeId src,
                                   NodeId dst, Cycle now, Arena &arena);

    /** Codecs do not measure error: the error ledger
     * (QualityTracker::record) does, at delivery, and
     * Network::bindErrorProfile binds the profile there. */
    virtual void bindErrorProfile(telemetry::ErrorProfile *) {}

    /** Codecs count no telemetry: the network counts the blocks its
     * NIs encode and decode (CodecBlockCounts, noc/network.h). */
    virtual void bindCounters(const CodecCounters &) {}
    /** @} */

    /** Cycles the encoder adds before the first body flit is ready. */
    virtual Cycle compressionLatency() const { return kCompressionLatency; }

    /** Cycles the decoder adds at the ejection side. */
    virtual Cycle decompressionLatency() const { return kDecompressionLatency; }

    /**
     * A dictionary update/invalidate notification travelling from a
     * decoder back to an encoder. The NoC layer injects one control
     * packet per notification to charge its traffic cost.
     */
    struct Notification {
        NodeId from; ///< decoder node emitting the notification
        NodeId to;   ///< encoder node it updates
        /**
         * Per-destination monotonic sequence number: the n-th
         * notification decoder @c from ever emitted. Strictly
         * increasing within one drainNotifications(dst) stream (and
         * across successive drains of the same @c dst).
         */
        std::uint64_t seq = 0;
    };

    /**
     * Dictionary schemes: the update/invalidate notifications emitted
     * by decoder @p dst since the last drain of @p dst, in @c seq
     * order. Stateless schemes return an empty list. Touches only
     * that decoder's queue.
     *
     * Notifications come only from decodes at @p dst (decoder
     * learning), never from encodes or the passage of time, so a
     * destination that decoded nothing since its last drain has
     * nothing to drain. The NoC layer relies on this: it drains only
     * the endpoints whose NI decoded a block since the last drain.
     */
    virtual std::vector<Notification>
    drainNotifications(NodeId dst)
    {
        (void)dst;
        return {};
    }

    /**
     * Decoder-vs-encoder expectation mismatches observed so far.
     * Nonzero indicates a dictionary-consistency protocol violation.
     */
    virtual std::uint64_t consistencyMismatches() const { return mismatches_; }

    /** The scheme-specific kind value marking an uncompressed word. */
    virtual std::uint8_t rawKind() const { return 0; }

    /** Hardware activity accumulated so far (power model input). */
    virtual CodecActivity activity() const;

    /**
     * Retune the approximation threshold at run time (the paper: the
     * threshold "can be dynamically adjusted at run time"). Dictionary
     * schemes apply it to newly recorded patterns only — already
     * installed masks keep their recorded width, as the hardware would.
     * @return false when the scheme has no approximation engine.
     */
    virtual bool setErrorThreshold(double) { return false; }

    /**
     * Bind the self-profiler: the dictionary schemes time their
     * deferred-update merge as `codec.apply_pending`; wrappers forward.
     */
    virtual void bindProfiler(telemetry::PhaseProfiler *prof)
    {
        profiler_ = prof;
    }

  protected:
    /** Bump the consistency-mismatch counter (decoders call this). */
    void noteMismatch() { ++mismatches_; }

    /** Batched mismatch record (the block-level decode helpers). */
    void noteMismatches(std::uint64_t n) { mismatches_ += n; }

    /** Word-count bookkeeping, called by every encode()/decode(). */
    void noteEncoded(std::uint64_t n) { words_encoded_ += n; }
    void noteDecoded(std::uint64_t n) { words_decoded_ += n; }

    /** The bound self-profiler (null when profiling is off). */
    telemetry::PhaseProfiler *profiler() const { return profiler_; }

  private:
    /** Bookkeeping shared by every source (encode side) and every
     * destination (decode side). */
    std::uint64_t mismatches_ = 0;
    std::uint64_t words_encoded_ = 0;
    std::uint64_t words_decoded_ = 0;
    /** Bind-time handle (null until bound). */
    telemetry::PhaseProfiler *profiler_ = nullptr;
};

/**
 * The Baseline "codec": transmits every word raw with no metadata.
 * Zero compression/decompression latency.
 */
class BaselineCodec : public CodecSystem
{
  public:
    Scheme scheme() const override { return Scheme::Baseline; }
    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
    Cycle compressionLatency() const override { return 0; }
    Cycle decompressionLatency() const override { return 0; }
};

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_CODEC_H
