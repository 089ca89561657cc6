/**
 * @file
 * Quality-of-result error telemetry: a profile of the signed per-word
 * relative errors in the delivered data, filled by the error ledger
 * (QualityTracker::record). This is the paper's bounded-error claim
 * made observable — not just "compression ratio X at threshold T" but
 * the actual error distribution the threshold bought.
 *
 * Determinism contract: every accumulator is either an integer (sample
 * counts, log-bucket occupancy, a fixed-point error sum) or an
 * order-independent fold (min/max). `merge` is therefore commutative
 * and associative, and `writeJson` renders byte-identical files no
 * matter how per-point profiles were combined — the same
 * property `MetricRegistry` guarantees, extended to exact means. The
 * one deliberate approximation is the fixed-point sum: errors are
 * accumulated at 2^-32 resolution with |e| clamped to kClampAbs, which
 * keeps 128-bit accumulation exact for ~2^87 samples while bounding
 * the influence of pathological relative errors (a near-zero precise
 * word can make |e| arbitrarily large; anything beyond the clamp is
 * "completely wrong" regardless).
 */
#ifndef APPROXNOC_TELEMETRY_ERROR_PROFILE_H
#define APPROXNOC_TELEMETRY_ERROR_PROFILE_H

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "common/types.h"

namespace approxnoc::telemetry {

class MetricRegistry;

/** Order-independent profile of signed per-word relative errors. */
class ErrorProfile
{
  public:
    /** Log-scaled |error| buckets: kBuckets quarter-decade buckets
     * covering [1e-16, 1), plus one overflow bucket for |e| >= 1.
     * Exact zeros are counted separately, not bucketed. */
    static constexpr int kBuckets = 64;
    static constexpr double kLogFloor = -16.0;
    static constexpr double kLogWidth = 0.25;
    /** |error| clamp for the fixed-point mean accumulator. */
    static constexpr double kClampAbs = 256.0;
    /** Scheme-overshoot slack the harness multiplies into the armed
     * debug limit (see setDebugLimit): covers WindowVaxx's per-word
     * budget cap (4x) and the TCAM don't-care rounding overshoot. */
    static constexpr double kDebugSlack = 8.0;

    ErrorProfile() = default;

    /** Record one delivered word's error on flow @p src -> @p dst. */
    void record(NodeId src, NodeId dst, double signed_err);

    /** Fold @p o into this profile (commutative, associative). */
    void merge(const ErrorProfile &o);

    /** Forget every recorded error (a new measurement window); the
     * armed limit and violations() are kept. */
    void clearSamples();

    std::uint64_t samples() const;
    std::uint64_t zeroCount() const;
    /** Recorded errors whose |e| exceeded the debug limit (0 if no
     * limit was armed). Debug builds assert instead of counting on. */
    std::uint64_t violations() const;

    double mean() const;    ///< signed mean (fixed-point exact)
    double meanAbs() const; ///< mean of |e| (fixed-point exact)
    double maxAbs() const;

    /** Upper edge of the log bucket holding quantile @p q of |e|
     * (0 < q <= 1); exact zeros participate as error 0. */
    double percentileAbs(double q) const;

    /** Bucket index for |e| (kBuckets = overflow, -1 = exact zero). */
    static int bucketOf(double abs_err);
    /** Lower |e| edge of bucket @p b. */
    static double bucketLowerEdge(int b);

    /**
     * Arm the threshold-violation check: any recorded |e| beyond
     * @p limit trips an assertion in debug builds (and is counted in
     * `violations()` in every build). The harness arms this with the
     * configured AVCL threshold times a scheme slack factor — the
     * window codec's per-word cap and the TCAM's don't-care overshoot
     * both legitimately exceed the nominal threshold.
     */
    void setDebugLimit(double limit);

    /** Export scalar summaries under @p prefix dotted paths. */
    void exportTo(MetricRegistry &reg, const std::string &prefix) const;

    /** Deterministic JSON dump (sorted keys, %.17g doubles). */
    void writeJson(std::ostream &os) const;

  private:
    /** One commutative accumulator bundle. */
    struct Agg {
        std::uint64_t count = 0;      ///< recorded words
        std::uint64_t zero = 0;       ///< exact-zero errors among them
        __int128 sum_fp = 0;          ///< signed error sum, scale 2^32
        __int128 sum_abs_fp = 0;      ///< |error| sum, scale 2^32
        double min = 0.0, max = 0.0;  ///< signed extremes (count > 0)
        double max_abs = 0.0;

        void add(double signed_err);
        void merge(const Agg &o);
    };

    static void writeAgg(std::ostream &os, const Agg &a);

    Agg total_;
    std::array<std::uint64_t, kBuckets + 1> buckets_{};
    std::map<std::pair<NodeId, NodeId>, Agg> flows_;
    double debug_limit_ = 0.0; ///< 0 = disarmed
    std::uint64_t violations_ = 0;
};

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_ERROR_PROFILE_H
