/**
 * @file
 * Dictionary-based NoC compression (DI-COMP) after Jin et al. [17] and
 * the paper's Fig. 7: decoders learn frequent patterns per sender and
 * send update notifications; encoder PMTs keep a per-destination vector
 * of encoded indices. The decoder-side learning, update queue, index
 * vector and consistency protocol live in DictionaryCodecBase so the
 * DI-VAXX variant (TCAM encoder, approx/di_vaxx.h) can reuse them.
 *
 * Consistency protocol: notifications apply at the encoder after
 * `notify_delay` cycles (FIFO per encoder, so ordering is preserved).
 * When the decoder evicts a PMT entry it keeps a per-(index, sender)
 * "stale" mapping alive until the matching invalidation has applied at
 * the sender plus a grace window, so indices compressed with the old
 * view still decode to the old pattern. Any residual disagreement is
 * counted by consistencyMismatches() (expected zero).
 */
#ifndef APPROXNOC_COMPRESSION_DICTIONARY_H
#define APPROXNOC_COMPRESSION_DICTIONARY_H

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"

#include "compression/codec.h"
#include "tcam/cam.h"

namespace approxnoc {

/** Tunables for the dictionary schemes (paper Table 1: 8-entry PMTs).
 *  PMTs and trackers use LFU replacement (the paper's frequency
 *  counters). */
struct DictionaryConfig {
    std::size_t n_nodes = 16;          ///< endpoints in the network
    std::size_t pmt_entries = 8;       ///< encoder/decoder PMT size
    std::size_t tracker_entries = 64;  ///< decoder candidate tracker size
    std::uint32_t promote_threshold = 3; ///< sightings before promotion
    /** Decoder->encoder update latency; must be >= 1, so an update
     *  never takes effect in the cycle its decoder issued it. */
    Cycle notify_delay = 20;

    /** Bits of an encoded index (3 for the default 8-entry PMT). */
    unsigned indexBits() const;
};

/** Per-word NR layout for the dictionary schemes. */
enum class DiWordKind : std::uint8_t {
    Raw = 0,        ///< 1 flag bit + 32 raw bits
    Compressed = 1, ///< 1 flag bit + indexBits() bits
};

/**
 * Shared machinery: decoder PMTs + candidate trackers, the delayed
 * update channel, the per-destination index table, eviction/
 * invalidation bookkeeping and the decode path. Subclasses own the
 * encoder PMTs.
 *
 * Where the state lives (see CodecSystem): an encode for source s
 * touches only the subclass's encoders_[s] (PMT, replacement
 * metadata, index table), pending_[s] (the update queue applyPending
 * drains) and the shared counters. A decode for destination d touches
 * only decoders_[d] (PMT, tracker, stale mappings, notification queue
 * and sequence), the queues of the encoders it sends updates to, and
 * the shared counters.
 */
class DictionaryCodecBase : public CodecSystem
{
  public:
    explicit DictionaryCodecBase(const DictionaryConfig &cfg);

    /** Apply due updates, run the subclass's encodeWords(), then the
     * shared tail (meta, incompressible-block fallback, telemetry). */
    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    /** Decoder-side reconstruction, learning and consistency check;
     * identical for both dictionary schemes. */
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;

    std::vector<Notification> drainNotifications(NodeId dst) override;

    std::uint8_t
    rawKind() const override
    {
        return static_cast<std::uint8_t>(DiWordKind::Raw);
    }

    const DictionaryConfig &config() const { return cfg_; }

    /** Total update + invalidate notifications ever sent. */
    std::uint64_t notificationsSent() const { return notifications_sent_; }

    /** Total CAM/TCAM search and write activity (power model input). */
    virtual std::uint64_t encoderSearches() const = 0;
    virtual std::uint64_t encoderWrites() const = 0;
    std::uint64_t decoderSearches() const;
    std::uint64_t decoderWrites() const;

    CodecActivity
    activity() const override
    {
        CodecActivity a = CodecSystem::activity();
        a.cam_searches = encoderSearches() + decoderSearches();
        a.cam_writes = encoderWrites() + decoderWrites();
        return a;
    }

  protected:
    /** An update or invalidation in flight towards an encoder. */
    struct Update {
        Cycle apply = 0;         ///< cycle at which the encoder sees it
        bool invalidate = false; ///< true: drop (decoder,index) mapping
        Word pattern = 0;        ///< pattern being installed (updates)
        DataType type = DataType::Raw; ///< data type the pattern was learned from
        std::uint8_t index = 0;  ///< decoder PMT index
        NodeId decoder = 0;      ///< decoder that owns the index
    };

    /**
     * Append the NR of every word of @p block, encoded at @p src for
     * @p dst, to @p out: the scheme's encoder-table loop, with
     * encoder-state lookup and per-block predicates hoisted out of it.
     */
    virtual void encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                             EncodedBlock &out) = 0;

    /** Apply one due notification to encoder @p enc's tables. */
    virtual void applyUpdateAtEncoder(NodeId enc, const Update &u) = 0;

    /**
     * Apply, in send order, every update queued for encoder @p enc
     * that is due at @p now. Every update is due notify_delay cycles
     * after it is sent, so while the clock never goes back, send order
     * is apply order; the network decodes same-cycle blocks in
     * ascending destination order, so their updates apply in
     * ascending decoder order. A caller that decodes in descending
     * order within a cycle, or turns its clock back, sees its updates
     * applied in call order.
     */
    void applyPending(NodeId enc, Cycle now);

    /**
     * Install the preloaded zero pattern into every encoder via
     * applyUpdateAtEncoder. Subclasses call this at the end of their
     * constructor (the decoder side is preloaded by the base).
     */
    void preloadEncoders();

    /** Word length of a compressed unit, in bits (flag + index). */
    std::uint16_t compressedBits() const { return 1 + index_bits_; }
    /** Word length of a raw unit, in bits (flag + word). */
    std::uint16_t rawBits() const { return 1 + 32; }

    /**
     * One encoder PMT's per-destination index vector (Fig. 7(a); DI-VAXX's
     * TCAM reuses it in Fig. 8), plus the inverse view, so an
     * invalidation finds its slot in O(1). A (decoder, index) pair maps
     * at most one slot, and a (slot, decoder) pair at most one index.
     */
    class IndexTable
    {
      public:
        static constexpr std::int16_t kNone = -1;

        explicit IndexTable(const DictionaryConfig &cfg);

        /** The index @p dst holds @p slot's pattern under, or kNone. */
        std::int16_t
        index(std::size_t slot, NodeId dst) const
        {
            return index_of_[slot][dst];
        }

        /** Map (@p slot, @p dst) to @p index, dropping the index that
         *  pair held before and the slot @p index mapped before. */
        void map(std::size_t slot, NodeId dst, std::uint8_t index);
        /** Drop @p dst's @p index; @return the slot it mapped, or kNone. */
        std::int16_t unmap(NodeId dst, std::uint8_t index);
        /** Drop every mapping of @p slot (the encoder evicts it). */
        void unmapSlot(std::size_t slot);
        /** True when some destination maps @p slot. */
        bool mapped(std::size_t slot) const;

      private:
        std::vector<std::vector<std::int16_t>> index_of_; ///< [slot][dst]
        std::vector<std::vector<std::int16_t>> slot_of_;  ///< [dst][index]
    };

    DictionaryConfig cfg_;
    unsigned index_bits_;

  private:
    /** Shared encode tail: meta, incompressible-block fallback (after
     * Das et al. [12]) and per-block telemetry. */
    EncodedBlock finishEncoded(EncodedBlock enc, const DataBlock &block);

    /** Decoder-side learning on an uncompressed word from @p src. */
    void learn(Word w, DataType type, NodeId src, NodeId dst, Cycle now);

    /** Queue an update/invalidate towards encoder @p enc. */
    void send(NodeId enc, Update u, Cycle now);

    struct DecoderState {
        Cam pmt;     ///< slot == encoded index
        Cam tracker; ///< candidate frequency tracking
        std::vector<DataType> types;            ///< per-slot learned type
        std::vector<std::vector<bool>> known_by; ///< [slot][encoder]
        /**
         * (index, sender) -> patterns still decodable after eviction.
         * Multiple generations can be in flight when a slot is evicted
         * repeatedly within the notification window.
         */
        std::map<std::pair<std::size_t, NodeId>,
                 std::vector<std::pair<Word, Cycle>>>
            stale;
        /** Last cycle this decoder sent an update (rate limiting). */
        Cycle last_notify = 0;
        bool ever_notified = false;
        /** Notifications queued since the last drain of this node. */
        std::vector<Notification> notify_queue;
        /** Next per-destination notification sequence number. */
        std::uint64_t next_seq = 0;

        DecoderState(const DictionaryConfig &cfg);
    };

    std::vector<DecoderState> decoders_;
    /** Per encoder, the updates in flight towards it, in send order. */
    std::vector<std::deque<Update>> pending_;
    std::uint64_t notifications_sent_ = 0;
};

/**
 * Exact dictionary compression (the paper's DI-COMP baseline).
 * Encoder PMT: an exact-match CAM plus, per slot, the per-destination
 * encoded index vector of Fig. 7(a).
 */
class DiCompCodec : public DictionaryCodecBase
{
  public:
    explicit DiCompCodec(const DictionaryConfig &cfg);

    Scheme scheme() const override { return Scheme::DiComp; }

    std::uint64_t encoderSearches() const override;
    std::uint64_t encoderWrites() const override;

    /** Encoder PMT occupancy at @p node (tests). */
    std::size_t encoderPatternCount(NodeId node) const;

  protected:
    /** One CAM lookup per word, then the per-destination index
     * check. */
    void encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                     EncodedBlock &out) override;
    void applyUpdateAtEncoder(NodeId enc, const Update &u) override;

  private:
    struct EncoderState {
        Cam cam;
        IndexTable indices;

        EncoderState(const DictionaryConfig &cfg);
    };

    std::vector<EncoderState> encoders_;
};

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_DICTIONARY_H
