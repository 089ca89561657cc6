#include "compression/encoded.h"

namespace approxnoc {

std::size_t
EncodedBlock::approximatedWords() const
{
    std::size_t n = 0;
    for (const auto &w : words_)
        n += w.approx_count;
    return n;
}

std::size_t
EncodedBlock::exactCompressedWords() const
{
    std::size_t n = 0;
    for (const auto &w : words_)
        if (!w.uncompressed)
            n += w.run - w.approx_count;
    return n;
}

std::size_t
EncodedBlock::uncompressedWords() const
{
    std::size_t n = 0;
    for (const auto &w : words_)
        if (w.uncompressed)
            n += w.run;
    return n;
}

EncodedBlock
raw_encoded_block(const DataBlock &block, std::uint8_t kind,
                  std::uint16_t bits_per_word)
{
    EncodedBlock raw;
    raw.reserve(block.size());
    for (std::size_t i = 0; i < block.size(); ++i) {
        EncodedWord ew;
        ew.kind = kind;
        ew.bits = bits_per_word;
        ew.payload = block.word(i);
        ew.decoded = block.word(i);
        ew.uncompressed = true;
        raw.append(ew);
    }
    raw.setMeta(block.type(), block.approximable());
    return raw;
}

} // namespace approxnoc
