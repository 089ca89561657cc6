#include "common/data_block.h"

#include <bit>
#include <cstdio>

namespace approxnoc {

DataBlock
DataBlock::fromFloats(const std::vector<float> &vals, bool approximable)
{
    std::vector<Word> ws;
    ws.reserve(vals.size());
    for (float v : vals)
        ws.push_back(std::bit_cast<Word>(v));
    return DataBlock(std::move(ws), DataType::Float32, approximable);
}

DataBlock
DataBlock::fromInts(const std::vector<std::int32_t> &vals, bool approximable)
{
    std::vector<Word> ws;
    ws.reserve(vals.size());
    for (std::int32_t v : vals)
        ws.push_back(static_cast<Word>(v));
    return DataBlock(std::move(ws), DataType::Int32, approximable);
}

float
DataBlock::floatAt(std::size_t i) const
{
    return std::bit_cast<float>(words_[i]);
}

void
DataBlock::setFloat(std::size_t i, float v)
{
    words_[i] = std::bit_cast<Word>(v);
}

std::string
DataBlock::toString() const
{
    std::string s = "[";
    char buf[16];
    for (std::size_t i = 0; i < words_.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%08x", words_[i]);
        if (i)
            s += ' ';
        s += buf;
    }
    s += "]";
    return s;
}

std::string
to_string(DataType t)
{
    switch (t) {
      case DataType::Int32: return "int32";
      case DataType::Float32: return "float32";
      case DataType::Raw: return "raw";
    }
    return "?";
}

std::string
to_string(Scheme s)
{
    switch (s) {
      case Scheme::Baseline: return "Baseline";
      case Scheme::DiComp: return "DI-COMP";
      case Scheme::DiVaxx: return "DI-VAXX";
      case Scheme::FpComp: return "FP-COMP";
      case Scheme::FpVaxx: return "FP-VAXX";
    }
    return "?";
}

} // namespace approxnoc
