#include "approx/fp_vaxx.h"

#include <vector>

namespace approxnoc {

namespace {

/** Words whose don't-care counts fit on the stack; longer blocks (none
 * in practice — cache blocks are 16 words) spill to the heap. */
constexpr std::size_t kStackWords = 64;

} // namespace

EncodedBlock
FpVaxxCodec::encode(const DataBlock &block, NodeId, NodeId, Cycle)
{
    noteEncoded(block.size());
    const bool approximable = block.approximable() &&
                              block.type() != DataType::Raw &&
                              avcl_.errorModel().enabled();
    EncodedBlock enc;
    if (!approximable) {
        enc = fpc_encode_block(block, [](std::size_t) { return 0u; });
    } else {
        unsigned stack_k[kStackWords];
        std::vector<unsigned> heap_k;
        unsigned *k = stack_k;
        if (block.size() > kStackWords) {
            heap_k.resize(block.size());
            k = heap_k.data();
        }
        for (std::size_t i = 0; i < block.size(); ++i) {
            const Word w = block.word(i);
            const ApproxDecision d = avcl_.analyze(w, block.type());
            const bool exact =
                d.bypass ||
                (mode_ == FpcPriorityMode::PreferExact && fpc_match(w, 0));
            k[i] = exact ? 0 : d.dont_care_bits;
        }
        enc = fpc_encode_block(block, [&](std::size_t i) { return k[i]; });
    }
    noteBlockEncoded(enc);
    return enc;
}

} // namespace approxnoc
