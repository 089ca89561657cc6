#include "compression/codec.h"

namespace approxnoc {

CodecActivity
CodecSystem::activity() const
{
    CodecActivity a;
    a.words_encoded = words_encoded_;
    a.words_decoded = words_decoded_;
    return a;
}

EncodedBlock
BaselineCodec::encode(const DataBlock &block, NodeId, NodeId, Cycle)
{
    noteEncoded(block.size());
    return raw_encoded_block(block, 0);
}

DataBlock
BaselineCodec::decode(const EncodedBlock &enc, NodeId, NodeId, Cycle)
{
    noteDecoded(enc.wordCount());
    std::vector<Word> ws;
    ws.reserve(enc.wordCount());
    for (const auto &w : enc.words())
        ws.push_back(w.payload);
    return DataBlock(std::move(ws), enc.type(), enc.approximable());
}

} // namespace approxnoc
