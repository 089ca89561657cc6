/**
 * @file
 * DataBlock: a cache block as seen by the NI codec — a run of 32-bit
 * words plus the metadata the APPROX-NoC framework consumes (data type
 * and the compiler/programmer approximability annotation).
 */
#ifndef APPROXNOC_COMMON_DATA_BLOCK_H
#define APPROXNOC_COMMON_DATA_BLOCK_H

#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.h"

namespace approxnoc {

/**
 * A cache block in flight. The paper transmits 64 B blocks (16 x 4 B
 * words); the example in Fig. 3 uses a 24 B block. Block size is a
 * construction parameter so both are expressible.
 *
 * A block is only ever approximated when *all* its words share the
 * annotated data type and the approximable flag is set (paper Sec. 5.1:
 * blocks are conservatively compressed only when homogeneous).
 */
class DataBlock
{
  public:
    DataBlock() = default;

    /** A zero-filled block of @p n_words words. */
    explicit DataBlock(std::size_t n_words, DataType type = DataType::Raw,
                       bool approximable = false)
        : words_(n_words, 0), type_(type), approximable_(approximable)
    {}

    /** A block with explicit word contents. */
    DataBlock(std::initializer_list<Word> ws, DataType type = DataType::Raw,
              bool approximable = false)
        : words_(ws), type_(type), approximable_(approximable)
    {}

    /** A block from a word vector. */
    DataBlock(std::vector<Word> ws, DataType type, bool approximable)
        : words_(std::move(ws)), type_(type), approximable_(approximable)
    {}

    /** Build a Float32 block from float values (bit-cast per word). */
    static DataBlock fromFloats(const std::vector<float> &vals,
                                bool approximable = true);

    /** Build an Int32 block from signed integers. */
    static DataBlock fromInts(const std::vector<std::int32_t> &vals,
                              bool approximable = true);

    std::size_t size() const { return words_.size(); }
    std::size_t sizeBytes() const { return words_.size() * sizeof(Word); }
    std::size_t sizeBits() const { return words_.size() * 32; }

    Word word(std::size_t i) const { return words_[i]; }
    void setWord(std::size_t i, Word w) { words_[i] = w; }
    const std::vector<Word> &words() const { return words_; }
    std::vector<Word> &words() { return words_; }

    DataType type() const { return type_; }
    void setType(DataType t) { type_ = t; }

    bool approximable() const { return approximable_; }
    void setApproximable(bool a) { approximable_ = a; }

    /** Word @p i reinterpreted as float (only meaningful for Float32). */
    float floatAt(std::size_t i) const;
    /** Store a float into word @p i. */
    void setFloat(std::size_t i, float v);

    /** Word @p i reinterpreted as a signed integer. */
    std::int32_t intAt(std::size_t i) const
    {
        return static_cast<std::int32_t>(words_[i]);
    }

    bool operator==(const DataBlock &o) const
    {
        return words_ == o.words_ && type_ == o.type_ &&
               approximable_ == o.approximable_;
    }

    /** Bitwise word equality ignoring metadata. */
    bool sameBits(const DataBlock &o) const { return words_ == o.words_; }

    /** Hex dump, for diagnostics and golden tests. */
    std::string toString() const;

  private:
    std::vector<Word> words_;
    DataType type_ = DataType::Raw;
    bool approximable_ = false;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_DATA_BLOCK_H
