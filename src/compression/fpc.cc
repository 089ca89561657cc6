#include "compression/fpc.h"

#include <algorithm>

#include "common/bits.h"
#include "common/log.h"

namespace approxnoc {
namespace {

/**
 * Solve the sign-extension constraint inside a field of width @p W:
 * find a field value equal to @p f on all bits >= @p kf that
 * sign-extends from its low @p p bits. Keeps f's bits wherever the
 * pattern leaves them unconstrained.
 */
std::optional<std::uint32_t>
solve_sign_in_field(std::uint32_t f, unsigned kf, unsigned W, unsigned p)
{
    f &= low_mask32(W);
    if (kf < p) {
        // The sign bit and everything above it are fixed: exact or fail.
        std::uint32_t se = sign_extend32(f, p) & low_mask32(W);
        return se == f ? std::optional<std::uint32_t>(f) : std::nullopt;
    }
    // kf >= p: bits [p-1 .. kf-1] are ours to set; bits >= kf must
    // already be uniform.
    unsigned s;
    if (kf >= W) {
        s = (f >> (p - 1)) & 1u;
    } else {
        std::uint32_t fixed = f >> kf;
        std::uint32_t all_ones = low_mask32(W - kf);
        if (fixed == 0)
            s = 0;
        else if (fixed == all_ones)
            s = 1;
        else
            return std::nullopt;
    }
    std::uint32_t low_keep = f & low_mask32(p - 1);
    std::uint32_t c = s ? ((low_mask32(W) & ~low_mask32(p - 1)) | low_keep)
                        : low_keep;
    return c;
}

} // namespace

std::string
to_string(FpcPattern p)
{
    switch (p) {
      case FpcPattern::ZeroRun: return "zero-run";
      case FpcPattern::Sign4: return "4-bit sign-extended";
      case FpcPattern::Sign8: return "byte sign-extended";
      case FpcPattern::Sign16: return "halfword sign-extended";
      case FpcPattern::HalfPadded: return "halfword padded with zero halfword";
      case FpcPattern::TwoHalfSign8: return "two byte-sign-extended halfwords";
      case FpcPattern::Uncompressed: return "uncompressed";
    }
    return "?";
}

unsigned
fpc_data_bits(FpcPattern p)
{
    switch (p) {
      case FpcPattern::ZeroRun: return 3;
      case FpcPattern::Sign4: return 4;
      case FpcPattern::Sign8: return 8;
      case FpcPattern::Sign16: return 16;
      case FpcPattern::HalfPadded: return 16;
      case FpcPattern::TwoHalfSign8: return 16;
      case FpcPattern::Uncompressed: return 32;
    }
    ANOC_PANIC("unknown FPC pattern");
}

std::optional<FpcMatch>
fpc_try_pattern(FpcPattern p, Word w, unsigned k)
{
    if (k > 32)
        k = 32;
    switch (p) {
      case FpcPattern::ZeroRun: {
        std::uint32_t fixed = k >= 32 ? 0 : (w & ~low_mask32(k));
        if (fixed != 0)
            return std::nullopt;
        return FpcMatch{p, 0, 0};
      }
      case FpcPattern::Sign4:
      case FpcPattern::Sign8:
      case FpcPattern::Sign16: {
        unsigned bits = p == FpcPattern::Sign4 ? 4
                      : p == FpcPattern::Sign8 ? 8
                                               : 16;
        auto c = solve_sign_in_field(w, k, 32, bits);
        if (!c)
            return std::nullopt;
        return FpcMatch{p, *c, *c & low_mask32(bits)};
      }
      case FpcPattern::HalfPadded: {
        std::uint32_t low_fixed = (w & 0xFFFFu) & ~low_mask32(std::min(k, 16u));
        if (low_fixed != 0)
            return std::nullopt;
        Word c = w & 0xFFFF0000u;
        return FpcMatch{p, c, c >> 16};
      }
      case FpcPattern::TwoHalfSign8: {
        unsigned k_lo = std::min(k, 16u);
        unsigned k_hi = k > 16 ? k - 16 : 0;
        auto lo = solve_sign_in_field(w & 0xFFFFu, k_lo, 16, 8);
        if (!lo)
            return std::nullopt;
        auto hi = solve_sign_in_field(w >> 16, k_hi, 16, 8);
        if (!hi)
            return std::nullopt;
        Word c = (*hi << 16) | *lo;
        std::uint32_t payload = ((*hi & 0xFFu) << 8) | (*lo & 0xFFu);
        return FpcMatch{p, c, payload};
      }
      case FpcPattern::Uncompressed:
        return FpcMatch{p, w, w};
    }
    return std::nullopt;
}

std::optional<FpcMatch>
fpc_match_ref(Word w, unsigned k)
{
    static constexpr FpcPattern kPriority[] = {
        FpcPattern::ZeroRun, FpcPattern::Sign4, FpcPattern::Sign8,
        FpcPattern::Sign16, FpcPattern::HalfPadded, FpcPattern::TwoHalfSign8,
    };
    for (FpcPattern p : kPriority) {
        if (auto m = fpc_try_pattern(p, w, k))
            return m;
    }
    return std::nullopt;
}

std::optional<FpcMatch>
fpc_match(Word w, unsigned k)
{
    if (k == 0)
        return fpc_match_exact(w);
    return fpc_match_ref(w, k);
}

Word
fpc_decode(FpcPattern p, std::uint32_t payload)
{
    switch (p) {
      case FpcPattern::ZeroRun:
        return 0;
      case FpcPattern::Sign4:
        return sign_extend32(payload, 4);
      case FpcPattern::Sign8:
        return sign_extend32(payload, 8);
      case FpcPattern::Sign16:
        return sign_extend32(payload, 16);
      case FpcPattern::HalfPadded:
        return payload << 16;
      case FpcPattern::TwoHalfSign8: {
        std::uint32_t hi = sign_extend32((payload >> 8) & 0xFFu, 8) & 0xFFFFu;
        std::uint32_t lo = sign_extend32(payload & 0xFFu, 8) & 0xFFFFu;
        return (hi << 16) | lo;
      }
      case FpcPattern::Uncompressed:
        return payload;
    }
    ANOC_PANIC("unknown FPC pattern in decode");
}

EncodedBlock
FpcCodec::encode(const DataBlock &block, NodeId, NodeId, Cycle)
{
    noteEncoded(block.size());
    EncodedBlock enc = fpc_encode_block(block, [](std::size_t) { return 0u; });
    noteBlockEncoded(enc);
    return enc;
}

std::uint64_t
fpc_decode_block(const EncodedBlock &enc, Word *out)
{
    std::uint64_t mismatches = 0;
    for (const auto &w : enc.words()) {
        Word v = w.uncompressed
                     ? w.payload
                     : fpc_decode(static_cast<FpcPattern>(w.kind), w.payload);
        if (v != w.decoded)
            ++mismatches;
        for (unsigned r = 0; r < w.run; ++r)
            *out++ = v;
    }
    return mismatches;
}

DataBlock
FpcCodec::decode(const EncodedBlock &enc, NodeId, NodeId, Cycle)
{
    noteDecoded(enc.wordCount());
    noteBlockDecoded();
    std::vector<Word> ws(enc.wordCount());
    noteMismatches(fpc_decode_block(enc, ws.data()));
    return DataBlock(std::move(ws), enc.type(), enc.approximable());
}

} // namespace approxnoc
