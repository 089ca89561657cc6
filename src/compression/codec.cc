#include "compression/codec.h"

#include <algorithm>

#include "common/arena.h"

namespace approxnoc {

DecodedSpan
CodecSystem::decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                        Cycle now, Arena &arena)
{
    DataBlock b = decodeBlock(enc, src, dst, now);
    Word *buf = arena.alloc<Word>(b.size());
    std::copy(b.words().begin(), b.words().end(), buf);
    return DecodedSpan{buf, b.size(), b.type(), b.approximable()};
}

} // namespace approxnoc
