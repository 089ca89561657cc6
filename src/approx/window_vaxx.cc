#include "approx/window_vaxx.h"

#include <algorithm>
#include <vector>

#include "common/bits.h"

namespace approxnoc {

EncodedBlock
WindowVaxxCodec::encode(const DataBlock &block, NodeId, NodeId, Cycle)
{
    noteEncoded(block.size());
    const bool approx_ok = block.approximable() &&
                           block.type() != DataType::Raw &&
                           model_.enabled();
    last_spent_ = 0.0;
    if (!approx_ok)
        return fpc_encode_block(block, [](std::size_t) { return 0u; });

    // Cumulative budget in "percent-words": each word nominally
    // contributes thresholdPct; exact matches return theirs to the
    // pool. The per-word draw is capped so the budget spreads.
    double budget = model_.thresholdPct() * static_cast<double>(block.size());
    const double cap = model_.thresholdPct() * per_word_cap_;
    double spent = 0.0;

    // Allocate the budget greedily in word order, once per word (the
    // block encoder may probe a word more than once while forming
    // zero runs, so the masks are fixed up front).
    std::vector<unsigned> ks(block.size(), 0);
    for (std::size_t i = 0; i < block.size(); ++i) {
        double allowance = std::min(cap, budget);
        if (allowance <= 0.0)
            continue;
        ErrorModel word_model(std::min(allowance, 100.0), model_.mode());
        ApproxDecision d =
            avcl_analyze(word_model, block.word(i), block.type());
        if (d.bypass)
            continue;

        // Charge the worst error the mask can incur: the candidate's
        // low bits can land anywhere in [0, mask], so the extreme
        // deviations are all-zeros and all-ones. Charging that maximum
        // keeps the window guarantee independent of which pattern the
        // matcher ends up choosing.
        Word mask = low_mask32(d.dont_care_bits);
        double worst =
            100.0 * std::max(avcl_relative_error(block.word(i),
                                                 block.word(i) & ~mask,
                                                 block.type()),
                             avcl_relative_error(block.word(i),
                                                 block.word(i) | mask,
                                                 block.type()));
        if (worst > allowance + 1e-9)
            continue; // conservative: never overdraw
        budget -= worst;
        spent += worst;
        ks[i] = d.dont_care_bits;
    }

    last_spent_ = spent;
    return fpc_encode_block(block, [&](std::size_t i) { return ks[i]; });
}

} // namespace approxnoc
