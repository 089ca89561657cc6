/**
 * @file
 * Frequent Pattern Compression (Alameldeen & Wood [5], as adapted to
 * NoCs by Das et al. [12]). Implements exactly the paper's Fig. 5
 * pattern table, plus a don't-care-aware solver: given a word and a
 * number of approximable low bits k, find the highest-priority pattern
 * some candidate value (differing from the word only in those k bits)
 * matches. k = 0 gives plain exact FPC; k > 0 is the FP-VAXX matching
 * rule (Fig. 6: the non-shaded bits must match the pattern exactly).
 */
#ifndef APPROXNOC_COMPRESSION_FPC_H
#define APPROXNOC_COMPRESSION_FPC_H

#include <bit>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bits.h"
#include "common/types.h"

#include "compression/codec.h"
#include "compression/encoded.h"

namespace approxnoc {

/** The static frequent patterns, Fig. 5 (encoded index = enum value). */
enum class FpcPattern : std::uint8_t {
    ZeroRun = 0,       ///< run of 1..8 zero words, 3 data bits
    Sign4 = 1,         ///< 4-bit sign-extended, 4 data bits
    Sign8 = 2,         ///< one byte sign-extended, 8 data bits
    Sign16 = 3,        ///< halfword sign-extended, 16 data bits
    HalfPadded = 4,    ///< halfword padded with a zero halfword, 16 bits
    TwoHalfSign8 = 5,  ///< two halfwords, each a byte sign-extended, 16 bits
    Uncompressed = 7,  ///< raw word, 32 data bits
};

/** Human-readable pattern name. */
std::string to_string(FpcPattern p);

/** Number of payload data bits for @p p (excluding the 3-bit prefix). */
unsigned fpc_data_bits(FpcPattern p);

/** The 3-bit prefix plus payload size of one encoded unit. */
inline constexpr unsigned kFpcPrefixBits = 3;

/** Result of matching one word against one pattern. */
struct FpcMatch {
    FpcPattern pattern;
    /** The value the decoder will reconstruct. */
    Word candidate;
    /** Payload bits to transmit. */
    std::uint32_t payload;
};

/**
 * Try to match @p w against pattern @p p, allowing the low @p k bits of
 * the word to take any value (don't cares). Picks the candidate that
 * keeps as many of w's original bits as the pattern permits.
 *
 * @return the match, or nullopt when no assignment of the k free bits
 *         satisfies the pattern.
 */
std::optional<FpcMatch> fpc_try_pattern(FpcPattern p, Word w, unsigned k);

/**
 * Match @p w against the whole table in priority (table) order with
 * @p k don't-care bits. Never returns Uncompressed: a miss is nullopt.
 * k = 0 takes the branchless fast path (fpc_match_exact); k > 0 runs
 * the don't-care solver.
 */
std::optional<FpcMatch> fpc_match(Word w, unsigned k = 0);

/**
 * Reference matcher: always the pattern-by-pattern solver loop, even
 * for k = 0. This is the executable specification the branchless
 * fpc_match_exact is differentially fuzzed against
 * (tests/test_fpc.cc); production code should call fpc_match.
 */
std::optional<FpcMatch> fpc_match_ref(Word w, unsigned k = 0);

namespace detail {

/** Sign-extension class by significant-bit count (two's-complement
 * width): sb <= 4 -> Sign4, <= 8 -> Sign8, <= 16 -> Sign16, else no
 * sign pattern applies (bits = 0 sentinel). Index 0 is unused (sb of
 * any word is at least 1). */
struct FpcSignClass {
    FpcPattern pattern;
    std::uint8_t bits;
};

inline constexpr FpcSignClass kFpcSignClass[33] = {
    {FpcPattern::Uncompressed, 0}, // sb = 0 (unreachable)
    {FpcPattern::Sign4, 4},   {FpcPattern::Sign4, 4},
    {FpcPattern::Sign4, 4},   {FpcPattern::Sign4, 4},   // sb 1..4
    {FpcPattern::Sign8, 8},   {FpcPattern::Sign8, 8},
    {FpcPattern::Sign8, 8},   {FpcPattern::Sign8, 8},   // sb 5..8
    {FpcPattern::Sign16, 16}, {FpcPattern::Sign16, 16},
    {FpcPattern::Sign16, 16}, {FpcPattern::Sign16, 16},
    {FpcPattern::Sign16, 16}, {FpcPattern::Sign16, 16},
    {FpcPattern::Sign16, 16}, {FpcPattern::Sign16, 16}, // sb 9..16
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0},
    {FpcPattern::Uncompressed, 0}, {FpcPattern::Uncompressed, 0}, // 17..32
};

} // namespace detail

/**
 * Branchless-classified exact (k = 0) matcher, the per-word hot path
 * of fpc_encode_block. One significant-bit count (xor with the sign
 * smear, then countl_zero) indexes the class table and decides all
 * three sign-extension patterns at once, replacing the solver's
 * per-pattern constraint walk; the two halfword patterns reduce to a
 * zero test and two unsigned range checks. Bit-identical to
 * fpc_match_ref(w, 0) by the priority argument in docs/perf.md,
 * enforced exhaustively-at-the-boundaries plus randomized in
 * tests/test_fpc.cc.
 */
inline std::optional<FpcMatch>
fpc_match_exact(Word w)
{
    if (w == 0)
        return FpcMatch{FpcPattern::ZeroRun, 0, 0};
    // Two's-complement width of w: xor with the all-sign-bits smear
    // clears the redundant sign copies, so sb = 33 - clz covers the
    // value plus one sign bit. sb is in [1, 32].
    const Word smear =
        static_cast<Word>(static_cast<std::int32_t>(w) >> 31);
    const unsigned sb =
        33u - static_cast<unsigned>(std::countl_zero(w ^ smear));
    const detail::FpcSignClass cls = detail::kFpcSignClass[sb];
    if (cls.bits)
        return FpcMatch{cls.pattern, w, w & low_mask32(cls.bits)};
    if ((w & 0xFFFFu) == 0)
        return FpcMatch{FpcPattern::HalfPadded, w, w >> 16};
    const std::uint32_t lo = w & 0xFFFFu;
    const std::uint32_t hi = w >> 16;
    // A halfword is byte-sign-extended iff adding 0x80 lands in
    // [0, 0x100) mod 2^16 (bits [15:8] all equal to bit 7).
    if (static_cast<std::uint16_t>(lo + 0x80u) < 0x100u &&
        static_cast<std::uint16_t>(hi + 0x80u) < 0x100u)
        return FpcMatch{FpcPattern::TwoHalfSign8, w,
                        ((hi & 0xFFu) << 8) | (lo & 0xFFu)};
    return std::nullopt;
}

/** Reconstruct a word from a pattern + payload (the decoder datapath). */
Word fpc_decode(FpcPattern p, std::uint32_t payload);

/**
 * Stateless block-level FPC decode, the body of FpcCodec::decode(),
 * which FpVaxxCodec and WindowVaxxCodec inherit (the paper:
 * approximation is encoder-only, so their NRs decode identically).
 * Writes exactly enc.wordCount() reconstructed words to @p out,
 * expanding zero runs. Returns the count of decoder-vs-encoder
 * expectation mismatches so the caller can record them once per block
 * (CodecSystem::noteMismatches) instead of per word.
 */
std::uint64_t fpc_decode_block(const EncodedBlock &enc, Word *out);

/**
 * The FP-COMP codec: stateless per-word FPC with block-level zero-run
 * merging. Shared by every node (the pattern table is static). Its
 * decode() is the one FPC decoder: the approximating FPC schemes
 * derive from it and override only scheme() and encode().
 */
class FpcCodec : public CodecSystem
{
  public:
    FpcCodec() = default;

    Scheme scheme() const override { return Scheme::FpComp; }

    std::uint8_t
    rawKind() const override
    {
        return static_cast<std::uint8_t>(FpcPattern::Uncompressed);
    }

    EncodedBlock encode(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now) override;
    DataBlock decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                     Cycle now) override;
};

/**
 * Block-level FPC encoding helper used by both FpcCodec and FpVaxxCodec:
 * @p k_of_word yields the per-word don't-care count (0 when exact).
 * Merges consecutive zero words (exact or approximated-to-zero) into
 * zero-run units. @p k_of_word may be called more than once for a word
 * (a zero run probes the word after it).
 */
template <typename KFn>
EncodedBlock
fpc_encode_block(const DataBlock &block, KFn &&k_of_word)
{
    EncodedBlock enc;
    enc.reserve(block.size());
    std::size_t i = 0;
    const std::size_t n = block.size();
    while (i < n) {
        unsigned k = k_of_word(i);
        auto m = fpc_match(block.word(i), k);
        if (m && m->pattern == FpcPattern::ZeroRun) {
            // Greedily extend the zero run up to 8 words.
            std::uint8_t run = 1;
            std::uint8_t approx = block.word(i) != 0 ? 1 : 0;
            while (i + run < n && run < 8) {
                auto mr = fpc_match(block.word(i + run), k_of_word(i + run));
                if (!mr || mr->pattern != FpcPattern::ZeroRun)
                    break;
                approx += block.word(i + run) != 0 ? 1 : 0;
                ++run;
            }
            EncodedWord ew;
            ew.kind = static_cast<std::uint8_t>(FpcPattern::ZeroRun);
            ew.bits = kFpcPrefixBits + fpc_data_bits(FpcPattern::ZeroRun);
            ew.payload = run - 1u;
            ew.run = run;
            ew.approx_count = approx;
            ew.decoded = 0;
            ew.approximated = approx > 0;
            enc.append(ew);
            i += run;
            continue;
        }
        EncodedWord ew;
        if (m) {
            ew.kind = static_cast<std::uint8_t>(m->pattern);
            ew.bits = kFpcPrefixBits + fpc_data_bits(m->pattern);
            ew.payload = m->payload;
            ew.decoded = m->candidate;
            ew.approximated = m->candidate != block.word(i);
            ew.approx_count = ew.approximated ? 1 : 0;
        } else {
            ew.kind = static_cast<std::uint8_t>(FpcPattern::Uncompressed);
            ew.bits = kFpcPrefixBits + 32;
            ew.payload = block.word(i);
            ew.decoded = block.word(i);
            ew.uncompressed = true;
        }
        enc.append(ew);
        ++i;
    }
    enc.setMeta(block.type(), block.approximable());

    // Incompressible-block fallback (after Das et al. [12]): a block
    // the patterns cannot shrink travels raw; the compressed/raw flag
    // rides in the (uncompressed) head flit.
    if (enc.bits() > block.sizeBits() && block.size() > 0)
        return raw_encoded_block(
            block, static_cast<std::uint8_t>(FpcPattern::Uncompressed));
    return enc;
}

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_FPC_H
