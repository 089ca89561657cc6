/**
 * @file
 * The network representation (NR) of a cache block after encoding:
 * a sequence of per-word codes whose total bit count determines how
 * many flits the packet needs (paper Fig. 3).
 */
#ifndef APPROXNOC_COMPRESSION_ENCODED_H
#define APPROXNOC_COMPRESSION_ENCODED_H

#include <cstdint>
#include <vector>

#include "common/data_block.h"
#include "common/types.h"

namespace approxnoc {

/**
 * One encoded word (or zero-run of words) in the NR.
 *
 * @c decoded records the value the *encoder* expects the decoder to
 * reconstruct; the real decoders recompute the value from their own
 * state, and the framework checks the two agree (dictionary-consistency
 * invariant).
 */
struct EncodedWord {
    /** Scheme-specific code (FPC 3-bit prefix / dictionary flag). */
    std::uint8_t kind = 0;
    /** Total bits this unit occupies in the NR, metadata included. */
    std::uint16_t bits = 0;
    /** Encoded payload bits (right-aligned). */
    std::uint32_t payload = 0;
    /** Number of source words covered (zero-runs cover up to 8). */
    std::uint8_t run = 1;
    /** How many covered words had their value changed by approximation. */
    std::uint8_t approx_count = 0;
    /** Value the encoder expects the decoder to produce (all run words). */
    Word decoded = 0;
    /** True when the word was emitted uncompressed. */
    bool uncompressed = false;
};

/** A whole encoded cache block: the NR plus bookkeeping. */
class EncodedBlock
{
  public:
    void
    reserve(std::size_t n_units)
    {
        words_.reserve(n_units);
    }

    void
    append(const EncodedWord &w)
    {
        words_.push_back(w);
        bits_ += w.bits;
        n_words_ += w.run;
    }

    /** Record the block metadata carried alongside the NR. */
    void
    setMeta(DataType type, bool approximable)
    {
        type_ = type;
        approximable_ = approximable;
    }

    DataType type() const { return type_; }
    bool approximable() const { return approximable_; }

    const std::vector<EncodedWord> &words() const { return words_; }

    /** Total NR payload size in bits. */
    std::size_t bits() const { return bits_; }

    /** Number of original 32-bit words covered. */
    std::size_t wordCount() const { return n_words_; }

    /** Count of words whose value was changed by approximation. */
    std::size_t approximatedWords() const;

    /** Words compressed exactly (zero-runs included, raw words excluded). */
    std::size_t exactCompressedWords() const;

    /** Count of words emitted raw. */
    std::size_t uncompressedWords() const;

  private:
    std::vector<EncodedWord> words_;
    std::size_t bits_ = 0;
    std::size_t n_words_ = 0;
    DataType type_ = DataType::Raw;
    bool approximable_ = false;
};

/**
 * Build the all-raw NR for @p block: every word uncompressed under the
 * scheme-specific raw @p kind, @p bits_per_word bits each (32 when the
 * compressed/raw flag rides in the head flit). Shared by the
 * incompressible-block fallbacks and the adaptive bypass path.
 */
EncodedBlock raw_encoded_block(const DataBlock &block, std::uint8_t kind,
                               std::uint16_t bits_per_word = 32);

} // namespace approxnoc

#endif // APPROXNOC_COMPRESSION_ENCODED_H
