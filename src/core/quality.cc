#include "core/quality.h"

#include <cmath>

#include "common/log.h"
#include "common/relative_error.h"
#include "telemetry/error_profile.h"

namespace approxnoc {

double
QualityTracker::record(const DataBlock &precise, const EncodedBlock &enc,
                       const DataBlock &delivered, NodeId src, NodeId dst)
{
    ANOC_ASSERT(precise.size() == delivered.size(),
                "block size mismatch in error ledger");
    double abs_sum = 0.0;
    for (std::size_t i = 0; i < precise.size(); ++i) {
        const Word w = precise.word(i);
        const Word d = delivered.word(i);
        if (w == d)
            continue;
        const double e = signed_relative_error(w, d, precise.type());
        abs_sum += std::fabs(e);
        if (qor_)
            qor_->record(src, dst, e);
    }
    const double block_error =
        precise.size() ? abs_sum / static_cast<double>(precise.size()) : 0.0;

    ++blocks_;
    error_sum_ += block_error;
    words_total_ += enc.wordCount();
    words_exact_ += enc.exactCompressedWords();
    words_approx_ += enc.approximatedWords();
    bits_original_ += precise.sizeBits();
    bits_encoded_ += enc.bits();
    return block_error;
}

void
QualityTracker::reset()
{
    telemetry::ErrorProfile *qor = qor_;
    *this = QualityTracker();
    qor_ = qor;
}

double
QualityTracker::meanRelativeError() const
{
    return blocks_ ? error_sum_ / static_cast<double>(blocks_) : 0.0;
}

double
QualityTracker::exactEncodedFraction() const
{
    return words_total_
               ? static_cast<double>(words_exact_) /
                     static_cast<double>(words_total_)
               : 0.0;
}

double
QualityTracker::approxEncodedFraction() const
{
    return words_total_
               ? static_cast<double>(words_approx_) /
                     static_cast<double>(words_total_)
               : 0.0;
}

double
QualityTracker::compressionRatio() const
{
    return bits_encoded_
               ? static_cast<double>(bits_original_) /
                     static_cast<double>(bits_encoded_)
               : 1.0;
}

} // namespace approxnoc
