#include "approx/di_vaxx.h"

#include "common/log.h"

namespace approxnoc {

DiVaxxCodec::EncoderState::EncoderState(const DictionaryConfig &cfg)
    : tcam(cfg.pmt_entries, cfg.policy),
      types(cfg.pmt_entries, DataType::Raw),
      dst_entries(cfg.pmt_entries)
{}

DiVaxxCodec::DiVaxxCodec(const DictionaryConfig &cfg, const ErrorModel &model,
                         VaxxPlacement placement)
    : DictionaryCodecBase(cfg), avcl_(model), placement_(placement)
{
    encoders_.reserve(cfg.n_nodes);
    for (std::size_t i = 0; i < cfg.n_nodes; ++i)
        encoders_.emplace_back(cfg);
    preloadEncoders();
}

void
DiVaxxCodec::encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                         EncodedBlock &out)
{
    EncoderState &e = encoders_[src];
    const bool approx_ok = block.approximable() &&
                           block.type() != DataType::Raw &&
                           avcl_.errorModel().enabled();
    const DataType type = block.type();
    for (std::size_t i = 0; i < block.size(); ++i) {
        const Word w = block.word(i);
        EncodedWord ew;
        bool compressed = false;
        // One TCAM access per word (counts towards the power model).
        // searchVisit hands us the matches in priority order,
        // so finding the first entry with a usable mapping for dst
        // costs a single search instead of a search plus a full-match
        // sweep.
        e.tcam.searchVisit(w, [&](std::size_t slot) {
            auto it = e.dst_entries[slot].find(dst);
            if (it == e.dst_entries[slot].end())
                return false;
            const DstEntry &de = it->second;
            // Approximate hit: allowed only for approximable data of
            // the same type the pattern was learned from (masks are
            // only valid within one type's semantics). Exact hit:
            // always allowed.
            bool exact = de.original == w;
            if (!exact && (!approx_ok || e.types[slot] != type))
                return false;
            ew.kind = static_cast<std::uint8_t>(DiWordKind::Compressed);
            ew.bits = compressedBits();
            ew.payload = de.index;
            ew.decoded = de.original;
            ew.approximated = !exact;
            ew.approx_count = exact ? 0 : 1;
            compressed = true;
            return true;
        });
        if (!compressed) {
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
DiVaxxCodec::applyUpdateAtEncoder(NodeId enc, const Update &u)
{
    EncoderState &e = encoders_[enc];
    if (u.invalidate) {
        for (std::size_t s = 0; s < e.tcam.capacity(); ++s) {
            auto it = e.dst_entries[s].find(u.decoder);
            if (it != e.dst_entries[s].end() && it->second.index == u.index) {
                e.dst_entries[s].erase(it);
                if (e.dst_entries[s].empty())
                    e.tcam.erase(s);
            }
        }
        return;
    }

    // APCL: compute the approximate pattern once, at record time.
    TernaryPattern tp = avcl_.patternFor(u.pattern, u.type);
    std::size_t slot = e.tcam.victimFor(tp);
    bool evicting = e.tcam.valid(slot) && !(e.tcam.pattern(slot) == tp);
    if (evicting)
        e.dst_entries[slot].clear();
    std::size_t got = e.tcam.insert(tp);
    ANOC_ASSERT(got == slot, "encoder TCAM victim selection diverged");
    e.types[slot] = u.type;
    e.dst_entries[slot][u.decoder] = DstEntry{u.index, u.pattern};
}

std::uint64_t
DiVaxxCodec::encoderSearches() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.tcam.searches();
    return n;
}

std::uint64_t
DiVaxxCodec::encoderWrites() const
{
    std::uint64_t n = 0;
    for (const auto &e : encoders_)
        n += e.tcam.writes();
    return n;
}

std::size_t
DiVaxxCodec::encoderPatternCount(NodeId node) const
{
    return encoders_[node].tcam.validCount();
}

} // namespace approxnoc
