/**
 * @file
 * The error ledger: the one place approximation error is measured.
 * Every delivered block passes through QualityTracker::record, which
 * compares the precise words with the delivered ones under
 * signed_relative_error (common/relative_error.h) and feeds the
 * paper's Fig. 9 Data_approx_quality (quality = 1 - mean relative
 * error), the `net.approx_error` histogram and, when bound, the
 * per-word QoR ErrorProfile. Also tracks the encoded-word breakdown
 * for Fig. 10(a) and compression ratios for Fig. 10(b).
 */
#ifndef APPROXNOC_CORE_QUALITY_H
#define APPROXNOC_CORE_QUALITY_H

#include <cstdint>

#include "common/data_block.h"
#include "common/types.h"
#include "compression/encoded.h"

namespace approxnoc {

namespace telemetry {
class ErrorProfile;
} // namespace telemetry

/** Accumulates codec effectiveness and value quality over blocks. */
class QualityTracker
{
  public:
    /**
     * Record one encoded block and its delivered reconstruction. Each
     * delivered word that differs from its precise word costs one
     * signed_relative_error; the bound profile (if any) records it on
     * flow @p src -> @p dst.
     * @return the block's mean |relative error| over all its words.
     */
    double record(const DataBlock &precise, const EncodedBlock &enc,
                  const DataBlock &delivered, NodeId src = 0,
                  NodeId dst = 0);

    /**
     * Bind the QoR profile that receives one signed relative error per
     * differing delivered word. Null (the default) detaches. The
     * binding survives reset().
     */
    void bindErrorProfile(telemetry::ErrorProfile *qor) { qor_ = qor; }
    telemetry::ErrorProfile *errorProfile() const { return qor_; }

    /** Blocks observed. */
    std::uint64_t blocks() const { return blocks_; }

    /** Mean per-word relative error across blocks. */
    double meanRelativeError() const;

    /** Running sum of per-block mean relative error (windowing). */
    double errorSum() const { return error_sum_; }

    /** The paper's data quality metric: 1 - meanRelativeError(). */
    double dataQuality() const { return 1.0 - meanRelativeError(); }

    /** Fraction of words compressed exactly (of all words). */
    double exactEncodedFraction() const;

    /** Fraction of words compressed via approximation (of all words). */
    double approxEncodedFraction() const;

    /** Fraction of words encoded at all (exact + approx). */
    double
    encodedFraction() const
    {
        return exactEncodedFraction() + approxEncodedFraction();
    }

    /** Mean compression ratio: original bits / NR bits. */
    double compressionRatio() const;

    std::uint64_t totalWords() const { return words_total_; }
    std::uint64_t approximatedWords() const { return words_approx_; }

    /** Forget every measurement (measurement-window bookkeeping). */
    void reset();

  private:
    std::uint64_t blocks_ = 0;
    double error_sum_ = 0.0; ///< sum of per-block mean relative error
    std::uint64_t words_total_ = 0;
    std::uint64_t words_exact_ = 0;
    std::uint64_t words_approx_ = 0;
    std::uint64_t bits_original_ = 0;
    std::uint64_t bits_encoded_ = 0;
    telemetry::ErrorProfile *qor_ = nullptr;
};

} // namespace approxnoc

#endif // APPROXNOC_CORE_QUALITY_H
