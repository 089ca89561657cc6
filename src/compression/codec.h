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

#include "common/contract.h"
#include "common/data_block.h"
#include "common/relaxed_counter.h"
#include "common/stats.h"
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
 * Zero-copy view of a decoded block: the words live in the Arena the
 * caller passed to decodeSpan() and stay valid until that arena is
 * reset. Carries the same metadata as DataBlock without owning
 * storage; callers needing ownership copy into a DataBlock.
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
 * Telemetry counter handles a codec records into, all null by default
 * (telemetry off). The pointed-to counters live in a per-point
 * MetricRegistry owned by the harness; the codec only increments.
 * Recording happens once per block off the aggregate EncodedBlock
 * accessors, so the per-word encode loop is never touched.
 */
struct CodecCounters {
    Counter *blocks_encoded = nullptr;
    Counter *blocks_decoded = nullptr;
    Counter *hit_exact = nullptr;  ///< words compressed exactly
    Counter *hit_approx = nullptr; ///< words changed by approximation
    Counter *miss_raw = nullptr;   ///< words emitted uncompressed
    Counter *bits_out = nullptr;   ///< total NR bits emitted

    bool bound() const { return blocks_encoded != nullptr; }
};

/**
 * Abstract compression system. encode() runs at the source NI for a
 * block headed src -> dst; decode() runs at the destination NI.
 * Dictionary schemes are stateful and time-aware (update notifications
 * apply after a delay), hence the @p now parameters.
 *
 * ## Flow-isolation contract (parallel encoding)
 *
 * Encoder-side mutable state is keyed by the *source* endpoint: the
 * dictionary schemes keep one PMT (CAM/TCAM plus replacement
 * metadata) and one pending-update FIFO per encoder node, the
 * adaptive wrapper one mode window per sender, and the stateless
 * schemes no per-call state at all. Blocks of flows with distinct
 * @p src therefore never share mutable encoder state, and
 * encode()/encodeBlock() calls for distinct @p src may run
 * concurrently. The remaining cross-source state is commutative
 * relaxed-atomic counters (word counts, AVCL activations, telemetry
 * CodecCounters), so totals are independent of thread interleaving.
 *
 * Callers must still serialize all encodes of any one source
 * endpoint, in submission order — same-src blocks contend on that
 * encoder's replacement state and update FIFO even when their @p dst
 * differ. harness/FlowShardedEncoder enforces exactly this
 * partitioning and is the supported way to encode a batch of
 * independent blocks in parallel.
 *
 * ## Destination-isolation contract (parallel decoding)
 *
 * Decoder-side mutable state is keyed by the *destination* endpoint,
 * mirroring the encoder contract above: the dictionary schemes keep
 * one decoder PMT, candidate tracker, stale-mapping table and
 * notification queue per destination node, and the stateless schemes
 * no per-call decode state at all. decode()/decodeBlock() calls for
 * distinct @p dst therefore never share mutable decoder state and may
 * run concurrently. The cross-destination state a decode touches is
 *  - commutative relaxed-atomic counters (word/mismatch totals,
 *    telemetry CodecCounters), interleaving-independent by
 *    construction, and
 *  - the per-(encoder, decoder) pending-update channels: a decode at
 *    @p dst appends only to channels owned by @p dst, and the encoder
 *    side merges channels in a deterministic order independent of the
 *    thread interleaving that filled them.
 *
 * Callers must (a) serialize all decodes of any one destination
 * endpoint, in submission order — same-dst blocks contend on that
 * decoder's learning state even when their @p src differ — and
 * (b) phase-separate encodes from decodes: an encode drains the
 * pending-update channels decodes append to, so the two sides may
 * each run sharded internally but must not overlap in time.
 * harness/FlowShardedDecoder enforces the decode partitioning;
 * harness/ShardedCodecPipeline enforces the phasing for a full
 * encode -> wire -> decode batch.
 *
 * Every notification a decoder emits carries a per-destination
 * monotonic sequence number, so drainNotifications(dst) streams are
 * reproducible at any decode job count.
 */
class CodecSystem
{
  public:
    ANOC_ISOLATION_CONTRACT(flow_isolation, destination_isolation);

    virtual ~CodecSystem() = default;

    CodecSystem() = default;
    CodecSystem(const CodecSystem &) = delete;
    CodecSystem &operator=(const CodecSystem &) = delete;

    /** Which paper scheme this system implements. */
    virtual Scheme scheme() const = 0;

    /**
     * Encode @p block at node @p src for destination @p dst, one word
     * at a time. Kept as the executable specification of the NR: the
     * batched encodeBlock() must produce a bit-identical stream.
     */
    virtual EncodedBlock encode(const DataBlock &block, NodeId src,
                                NodeId dst, Cycle now) = 0;

    /**
     * Block-batched encode: the fast path every consumer (NI, cache,
     * harness, benches) routes through. Semantically identical to
     * encode() — same NR bits, same hit/victim choices — but schemes
     * override it to hoist per-word virtual dispatch, telemetry checks
     * and AVCL mask computation out of the 16-word inner loop. The
     * default forwards to encode() for schemes whose encode is already
     * block-level.
     */
    virtual EncodedBlock
    encodeBlock(const DataBlock &block, NodeId src, NodeId dst, Cycle now)
    {
        return encode(block, src, dst, now);
    }

    /**
     * Zero-copy batched encode: identical NR bits and side effects to
     * encodeBlock(), but the returned block's word storage lives in
     * @p arena — no heap allocation on the hot path once the arena is
     * warm. The block is valid until the arena is reset; moving it
     * keeps the arena backing, copying it detaches onto the heap.
     * The default forwards to encodeBlock() (heap-backed, always
     * correct); schemes override it to actually place storage in the
     * arena. Same serialization obligations as encodeBlock().
     */
    virtual EncodedBlock
    encodeSpan(const DataBlock &block, NodeId src, NodeId dst, Cycle now,
               Arena &arena)
    {
        (void)arena;
        return encodeBlock(block, src, dst, now);
    }

    /**
     * Decode @p enc at node @p dst, received from @p src. Kept as the
     * executable specification of the decoder: the batched
     * decodeBlock() must reconstruct a bit-identical DataBlock.
     */
    virtual DataBlock decode(const EncodedBlock &enc, NodeId src,
                             NodeId dst, Cycle now) = 0;

    /**
     * Block-batched decode: the fast path every consumer (NI, cache,
     * harness, benches) routes through, mirroring encodeBlock().
     * Semantically identical to decode() — same words, same learning
     * and notification side effects — but schemes override it to
     * hoist decoder-state lookup and per-block bookkeeping out of the
     * word loop. The default forwards to decode() for schemes whose
     * decode is already block-level.
     */
    virtual DataBlock
    decodeBlock(const EncodedBlock &enc, NodeId src, NodeId dst, Cycle now)
    {
        return decode(enc, src, dst, now);
    }

    /**
     * Zero-copy batched decode: identical words and side effects to
     * decodeBlock(), but the reconstructed words are written into
     * exactly enc.wordCount() arena-resident Words and returned as a
     * view — valid until @p arena is reset. The default routes
     * through decodeBlock() and copies once; schemes override it to
     * decode straight into the arena. Same serialization obligations
     * as decodeBlock().
     */
    virtual DecodedSpan decodeSpan(const EncodedBlock &enc, NodeId src,
                                   NodeId dst, Cycle now, Arena &arena);

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
         * across successive drains of the same @c dst), independent
         * of the decode job count — the ordering witness of the
         * destination-isolation contract.
         */
        std::uint64_t seq = 0;
    };

    /**
     * Dictionary schemes: the update/invalidate notifications emitted
     * by decoder @p dst since the last drain of @p dst, in @c seq
     * order. Stateless schemes return an empty list. Safe to call
     * concurrently for distinct @p dst (it touches only that
     * decoder's queue), but not concurrently with decodes of @p dst.
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
     * Bind telemetry counter handles (harness, per experiment point).
     * Unbound (the default) recording costs one predicted branch per
     * block — nothing per word. Wrappers forward to their inner codec.
     */
    virtual void bindCounters(const CodecCounters &c) { counters_ = c; }

    /**
     * Bind the QoR error profile the encode path records per-word
     * signed relative errors into at approximation time. Null (the
     * default) costs one predicted branch per *approximated* block —
     * exact blocks never reach the recording walk. Wrappers forward
     * to their inner codec.
     */
    virtual void bindErrorProfile(telemetry::ErrorProfile *qor)
    {
        qor_ = qor;
    }

    /**
     * Bind the self-profiler. The base registers the shared
     * `codec.apply_pending` phase that the dictionary schemes time
     * their deferred-update merge under; wrappers forward.
     */
    virtual void bindProfiler(telemetry::PhaseProfiler *prof);

  protected:
    /** Bump the consistency-mismatch counter (decoders call this). */
    void noteMismatch() { ++mismatches_; }

    /** Batched mismatch record (the block-level decode helpers). */
    void noteMismatches(std::uint64_t n) { mismatches_ += n; }

    /** Word-count bookkeeping, called by every encode()/decode(). */
    void noteEncoded(std::uint64_t n) { words_encoded_ += n; }
    void noteDecoded(std::uint64_t n) { words_decoded_ += n; }

    /**
     * Per-block telemetry record, called once at the end of every
     * derived encode(). Derives hit/miss/approx splits from the block's
     * aggregate accessors; immediate no-op when counters are unbound.
     */
    void
    noteBlockEncoded(const EncodedBlock &enc)
    {
        if (!counters_.bound())
            return;
        counters_.blocks_encoded->inc();
        counters_.hit_exact->inc(enc.exactCompressedWords());
        counters_.hit_approx->inc(enc.approximatedWords());
        counters_.miss_raw->inc(enc.uncompressedWords());
        counters_.bits_out->inc(enc.bits());
    }

    /**
     * QoR-aware variant: the counter record above plus, when an error
     * profile is bound and the block was actually approximated, one
     * signed relative-error sample per changed word on flow
     * @p src -> @p dst. Approximating encode paths call this; exact
     * paths (baseline, FPC, raw fallbacks) keep the 1-arg form.
     */
    void
    noteBlockEncoded(const EncodedBlock &enc, const DataBlock &precise,
                     NodeId src, NodeId dst)
    {
        noteBlockEncoded(enc);
        if (qor_ && enc.approximatedWords() > 0)
            recordQoR(precise, enc, src, dst);
    }

    /** Decode-side telemetry record; no-op when counters are unbound. */
    void
    noteBlockDecoded()
    {
        if (!counters_.bound())
            return;
        counters_.blocks_decoded->inc();
    }

    std::uint64_t wordsEncoded() const { return words_encoded_; }
    std::uint64_t wordsDecoded() const { return words_decoded_; }

    /** The bound self-profiler (null when profiling is off). */
    telemetry::PhaseProfiler *profiler() const { return profiler_; }
    /** Phase id for the dictionary deferred-update merge. */
    std::size_t applyPendingPhase() const { return apply_pending_phase_; }

  private:
    /** Walk @p enc against the precise block and record every
     * approximation-changed word's signed relative error. */
    void recordQoR(const DataBlock &precise, const EncodedBlock &enc,
                   NodeId src, NodeId dst);

    /** Relaxed-atomic: bookkeeping shared by every source (encode
     * side) and every destination (decode side). Sums commute, so
     * parallel per-flow encode shards and per-destination decode
     * shards produce the same totals as a serial run (see the
     * isolation contracts above). */
    ANOC_CROSS_SHARD(RelaxedCounter) RelaxedCounter mismatches_;
    ANOC_CROSS_SHARD(RelaxedCounter) RelaxedCounter words_encoded_;
    ANOC_CROSS_SHARD(RelaxedCounter) RelaxedCounter words_decoded_;
    /** Bind-time handles; the pointed-to Counters are themselves
     * relaxed-atomic (common/stats.h), so shard increments commute. */
    ANOC_REGION_SHARED CodecCounters counters_;
    ANOC_REGION_SHARED telemetry::ErrorProfile *qor_ = nullptr;
    ANOC_REGION_SHARED telemetry::PhaseProfiler *profiler_ = nullptr;
    ANOC_REGION_SHARED std::size_t apply_pending_phase_ = 0;
};

/**
 * The Baseline "codec": transmits every word raw with no metadata.
 * Zero compression/decompression latency.
 */
class BaselineCodec : public CodecSystem
{
  public:
    ANOC_ISOLATION_CONTRACT(flow_isolation, destination_isolation);

    Scheme scheme() const override { return Scheme::Baseline; }
    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    EncodedBlock encodeSpan(const DataBlock &block, NodeId src, NodeId dst,
                            Cycle now, Arena &arena) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
    DecodedSpan decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                           Cycle now, Arena &arena) override;
    Cycle compressionLatency() const override { return 0; }
    Cycle decompressionLatency() const override { return 0; }
};

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_CODEC_H
