#include "compression/dictionary.h"

#include <algorithm>

#include "common/bits.h"
#include "common/log.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

/**
 * Minimum spacing between update notifications from one decoder.
 * Bounds the control-packet overhead of dictionary training on
 * churn-heavy data (a decoder simply retries on a later sighting).
 */
constexpr Cycle kNotifyMinInterval = 50;
constexpr Cycle kZombieGrace = 2000; ///< stale decode window after eviction

unsigned
DictionaryConfig::indexBits() const
{
    return log2_ceil(pmt_entries);
}

DictionaryCodecBase::DecoderState::DecoderState(const DictionaryConfig &cfg)
    : pmt(cfg.pmt_entries), tracker(cfg.tracker_entries),
      types(cfg.pmt_entries, DataType::Raw),
      known_by(cfg.pmt_entries, std::vector<bool>(cfg.n_nodes, false))
{}

DictionaryCodecBase::DictionaryCodecBase(const DictionaryConfig &cfg)
    : cfg_(cfg), index_bits_(cfg.indexBits())
{
    ANOC_ASSERT(cfg.n_nodes > 0, "dictionary codec needs at least one node");
    decoders_.reserve(cfg.n_nodes);
    for (std::size_t i = 0; i < cfg.n_nodes; ++i)
        decoders_.emplace_back(cfg);
    pending_.resize(cfg.n_nodes);

    // Hardwire the all-zero word into every PMT at reset (index 0), as
    // frequent-value compression does [37]: zero lines dominate real
    // cache traffic and need no training.
    for (auto &d : decoders_) {
        std::size_t slot = d.pmt.insert(0);
        ANOC_ASSERT(slot == 0, "zero preload must land in slot 0");
        d.types[slot] = DataType::Raw;
        std::fill(d.known_by[slot].begin(), d.known_by[slot].end(), true);
    }
}

void
DictionaryCodecBase::preloadEncoders()
{
    for (NodeId e = 0; e < cfg_.n_nodes; ++e)
        for (NodeId d = 0; d < cfg_.n_nodes; ++d)
            applyUpdateAtEncoder(
                e, Update{0, false, 0, DataType::Raw, 0, d});
}

EncodedBlock
DictionaryCodecBase::finishEncoded(EncodedBlock enc, const DataBlock &block)
{
    enc.setMeta(block.type(), block.approximable());

    // Incompressible-block fallback (after Das et al. [12]): when the
    // per-word encoding would expand the block, send it raw; the
    // compressed/raw flag rides in the (uncompressed) head flit.
    if (enc.bits() > block.sizeBits() && block.size() > 0)
        enc = raw_encoded_block(block,
                                static_cast<std::uint8_t>(DiWordKind::Raw));
    noteBlockEncoded(enc);
    return enc;
}

EncodedBlock
DictionaryCodecBase::encode(const DataBlock &block, NodeId src, NodeId dst,
                            Cycle now)
{
    ANOC_ASSERT(src < cfg_.n_nodes && dst < cfg_.n_nodes,
                "node id out of range in dictionary encode");
    applyPending(src, now);
    noteEncoded(block.size());
    EncodedBlock enc;
    encodeWords(block, src, dst, enc);
    return finishEncoded(std::move(enc), block);
}

DataBlock
DictionaryCodecBase::decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                            Cycle now)
{
    ANOC_ASSERT(src < cfg_.n_nodes && dst < cfg_.n_nodes,
                "node id out of range in dictionary decode");
    noteDecoded(enc.wordCount());
    noteBlockDecoded();
    std::vector<Word> ws(enc.wordCount());
    Word *out = ws.data();
    DecoderState &d = decoders_[dst];
    for (const auto &w : enc.words()) {
        Word v;
        if (w.kind == static_cast<std::uint8_t>(DiWordKind::Compressed)) {
            // The value the decoder produces is w.decoded (the pattern
            // the encoder's consistent view maps the index to). We then
            // verify the decoder's own tables agree — via either the
            // live PMT entry or a not-yet-expired stale mapping from an
            // in-flight eviction — and count any disagreement as a
            // protocol violation.
            std::size_t index = w.payload;
            bool consistent = false;

            if (index < d.pmt.capacity() && d.pmt.valid(index) &&
                d.pmt.key(index) == w.decoded) {
                d.pmt.touch(index);
                consistent = true;
            } else if (auto stale_it = d.stale.find({index, src});
                       stale_it != d.stale.end()) {
                auto &gens = stale_it->second;
                std::erase_if(gens, [now](const auto &g) {
                    return g.second <= now;
                });
                for (const auto &g : gens)
                    consistent = consistent || g.first == w.decoded;
                if (gens.empty())
                    d.stale.erase(stale_it);
            }
            if (!consistent)
                noteMismatch();
            v = w.decoded;
        } else {
            v = w.payload;
            learn(v, enc.type(), src, dst, now);
            if (v != w.decoded)
                noteMismatch();
        }
        for (unsigned r = 0; r < w.run; ++r)
            *out++ = v;
    }
    return DataBlock(std::move(ws), enc.type(), enc.approximable());
}

void
DictionaryCodecBase::learn(Word w, DataType type, NodeId src, NodeId dst,
                           Cycle now)
{
    DecoderState &d = decoders_[dst];

    // Update-rate limiting: at most one notification per decoder per
    // kNotifyMinInterval cycles; a skipped opportunity simply recurs
    // on a later sighting of the pattern.
    const bool may_notify =
        !d.ever_notified || now >= d.last_notify + kNotifyMinInterval;
    auto mark_notified = [&] {
        d.last_notify = now;
        d.ever_notified = true;
    };

    if (auto slot = d.pmt.peek(w)) {
        d.pmt.touch(*slot);
        if (!d.known_by[*slot][src] && may_notify) {
            d.known_by[*slot][src] = true;
            mark_notified();
            send(src, Update{now + cfg_.notify_delay, false, w, type,
                             static_cast<std::uint8_t>(*slot), dst},
                 now);
        }
        return;
    }

    std::size_t tslot = d.tracker.insert(w);
    if (d.tracker.frequency(tslot) < cfg_.promote_threshold || !may_notify)
        return;
    mark_notified();

    // Promote: allocate a decoder PMT slot, invalidating the victim at
    // every encoder that knew it.
    std::size_t victim = d.pmt.victimFor(w);
    if (d.pmt.valid(victim)) {
        Word old = d.pmt.key(victim);
        for (NodeId e = 0; e < cfg_.n_nodes; ++e) {
            if (d.known_by[victim][e]) {
                send(e, Update{now + cfg_.notify_delay, true, old,
                               d.types[victim],
                               static_cast<std::uint8_t>(victim), dst},
                     now);
                d.stale[{victim, e}].emplace_back(
                    old, now + cfg_.notify_delay + kZombieGrace);
            }
        }
    }
    std::size_t slot = d.pmt.insert(w);
    ANOC_ASSERT(slot == victim, "decoder PMT victim selection diverged");
    d.types[slot] = type;
    std::fill(d.known_by[slot].begin(), d.known_by[slot].end(), false);
    d.known_by[slot][src] = true;
    d.tracker.erase(tslot);
    send(src, Update{now + cfg_.notify_delay, false, w, type,
                     static_cast<std::uint8_t>(slot), dst},
         now);
}

void
DictionaryCodecBase::send(NodeId enc, Update u, Cycle now)
{
    (void)now;
    DecoderState &d = decoders_[u.decoder];
    pending_[enc].push_back(u);
    d.notify_queue.push_back(Notification{u.decoder, enc, d.next_seq++});
    ++notifications_sent_;
}

void
DictionaryCodecBase::applyPending(NodeId enc, Cycle now)
{
    std::deque<Update> &queue = pending_[enc];
    if (queue.empty())
        return;
    // Timed only when updates are in flight: the empty-queue early-out
    // above stays a single check per encode.
    telemetry::PhaseProfiler::Scope prof(profiler(), applyPendingPhase());
    while (!queue.empty() && queue.front().apply <= now) {
        Update u = queue.front();
        queue.pop_front();
        applyUpdateAtEncoder(enc, u);
    }
}

std::vector<CodecSystem::Notification>
DictionaryCodecBase::drainNotifications(NodeId dst)
{
    ANOC_ASSERT(dst < cfg_.n_nodes, "node id out of range in drain");
    std::vector<Notification> out;
    out.swap(decoders_[dst].notify_queue);
    return out;
}

std::uint64_t
DictionaryCodecBase::decoderSearches() const
{
    std::uint64_t n = 0;
    for (const auto &d : decoders_)
        n += d.pmt.searches() + d.tracker.searches();
    return n;
}

std::uint64_t
DictionaryCodecBase::decoderWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : decoders_)
        n += d.pmt.writes() + d.tracker.writes();
    return n;
}

DictionaryCodecBase::IndexTable::IndexTable(const DictionaryConfig &cfg)
    : index_of_(cfg.pmt_entries,
                std::vector<std::int16_t>(cfg.n_nodes, kNone)),
      slot_of_(cfg.n_nodes, std::vector<std::int16_t>(cfg.pmt_entries, kNone))
{}

void
DictionaryCodecBase::IndexTable::map(std::size_t slot, NodeId dst,
                                     std::uint8_t index)
{
    // DI-VAXX: two exact patterns of one decoder can share a ternary
    // TCAM entry, and the later update replaces the earlier index.
    if (index_of_[slot][dst] != kNone)
        unmap(dst, static_cast<std::uint8_t>(index_of_[slot][dst]));
    // The protocol guarantees at most one slot per (decoder, index):
    // an invalidation precedes any reuse of a decoder index. Drop a
    // stale inverse hit anyway so the two views can never diverge.
    unmap(dst, index);
    index_of_[slot][dst] = static_cast<std::int16_t>(index);
    slot_of_[dst][index] = static_cast<std::int16_t>(slot);
}

std::int16_t
DictionaryCodecBase::IndexTable::unmap(NodeId dst, std::uint8_t index)
{
    const std::int16_t slot = slot_of_[dst][index];
    if (slot != kNone) {
        index_of_[static_cast<std::size_t>(slot)][dst] = kNone;
        slot_of_[dst][index] = kNone;
    }
    return slot;
}

void
DictionaryCodecBase::IndexTable::unmapSlot(std::size_t slot)
{
    for (NodeId d = 0; d < index_of_[slot].size(); ++d)
        if (index_of_[slot][d] != kNone)
            unmap(d, static_cast<std::uint8_t>(index_of_[slot][d]));
}

bool
DictionaryCodecBase::IndexTable::mapped(std::size_t slot) const
{
    return std::any_of(index_of_[slot].begin(), index_of_[slot].end(),
                       [](std::int16_t i) { return i != kNone; });
}

DiCompCodec::EncoderState::EncoderState(const DictionaryConfig &cfg)
    : cam(cfg.pmt_entries), indices(cfg)
{}

DiCompCodec::DiCompCodec(const DictionaryConfig &cfg)
    : DictionaryCodecBase(cfg)
{
    encoders_.reserve(cfg.n_nodes);
    for (std::size_t i = 0; i < cfg.n_nodes; ++i)
        encoders_.emplace_back(cfg);
    preloadEncoders();
}

void
DiCompCodec::encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                         EncodedBlock &out)
{
    EncoderState &e = encoders_[src];
    for (std::size_t i = 0; i < block.size(); ++i) {
        const Word w = block.word(i);
        EncodedWord ew;
        auto slot = e.cam.search(w);
        const std::int16_t index =
            slot ? e.indices.index(*slot, dst) : IndexTable::kNone;
        if (index != IndexTable::kNone) {
            ew.kind = static_cast<std::uint8_t>(DiWordKind::Compressed);
            ew.bits = compressedBits();
            ew.payload = static_cast<std::uint32_t>(index);
            ew.decoded = w;
        } else {
            ew.kind = static_cast<std::uint8_t>(DiWordKind::Raw);
            ew.bits = rawBits();
            ew.payload = w;
            ew.decoded = w;
            ew.uncompressed = true;
        }
        out.append(ew);
    }
}

void
DiCompCodec::applyUpdateAtEncoder(NodeId enc, const Update &u)
{
    EncoderState &e = encoders_[enc];
    if (u.invalidate) {
        e.indices.unmap(u.decoder, u.index);
        return;
    }
    std::size_t slot = e.cam.victimFor(u.pattern);
    bool evicting = e.cam.valid(slot) && e.cam.key(slot) != u.pattern;
    if (evicting)
        e.indices.unmapSlot(slot);
    std::size_t got = e.cam.insert(u.pattern);
    ANOC_ASSERT(got == slot, "encoder PMT victim selection diverged");
    e.indices.map(slot, u.decoder, u.index);
}

std::uint64_t
DiCompCodec::encoderSearches() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.cam.searches();
    return n;
}

std::uint64_t
DiCompCodec::encoderWrites() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.cam.writes();
    return n;
}

std::size_t
DiCompCodec::encoderPatternCount(NodeId node) const
{
    return encoders_[node].cam.validCount();
}

} // namespace approxnoc
