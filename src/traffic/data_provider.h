/**
 * @file
 * Data payload sources for traffic generators. The paper's synthetic
 * workloads (Sec. 5.1) keep the *data* constant and correlated with the
 * benchmark's value locality while the pattern/rate vary: TraceDataProvider
 * replays blocks recorded from a benchmark run; SyntheticDataProvider
 * generates value-clustered blocks when no trace is at hand.
 */
#ifndef APPROXNOC_TRAFFIC_DATA_PROVIDER_H
#define APPROXNOC_TRAFFIC_DATA_PROVIDER_H

#include <memory>
#include <vector>

#include "common/data_block.h"
#include "common/rng.h"
#include "common/types.h"
#include "traffic/trace.h"

namespace approxnoc {

class CliArgs;

/** The payload type named by --type: `int` or `float` (the default);
 *  any other value is fatal, naming the flag. */
DataType synthetic_data_type(const CliArgs &args);

/** Supplies the data block for the next data packet at node @p src. */
class DataProvider
{
  public:
    virtual ~DataProvider() = default;
    virtual DataBlock next(NodeId src) = 0;
};

/** Replays a trace's blocks in index order, round-robin per node.
 *  Borrows the trace, which must outlive the provider. */
class TraceDataProvider : public DataProvider
{
  public:
    explicit TraceDataProvider(const CommTrace &trace);
    /** A temporary trace would dangle. */
    explicit TraceDataProvider(CommTrace &&) = delete;
    DataBlock next(NodeId src) override;

  private:
    const CommTrace &trace_;
    std::vector<std::size_t> cursor_;
};

/**
 * Value-clustered synthetic blocks: each node draws words near a small
 * set of per-node "hot" base values (mimicking benchmark value
 * locality), with occasional uniform noise words.
 */
class SyntheticDataProvider : public DataProvider
{
  public:
    /**
     * @param type block data type
     * @param words_per_block block size (16 = 64 B)
     * @param locality probability a word comes from a hot base value
     * @param spread_pct relative jitter around the base value (percent)
     * @param seed RNG seed
     * @param exact_fraction of the hot words, the fraction repeated
     *        bit-exactly (the rest are jittered by spread_pct) —
     *        exact repeats feed the dictionary schemes, near values
     *        feed the approximate ones
     */
    SyntheticDataProvider(DataType type, std::size_t words_per_block = 16,
                          double locality = 0.8, double spread_pct = 5.0,
                          std::uint64_t seed = 1,
                          double exact_fraction = 0.5,
                          std::size_t n_bases = 16);

    DataBlock next(NodeId src) override;

  private:
    Word jitter(Word base, NodeId src);

    DataType type_;
    std::size_t words_;
    double locality_;
    double spread_pct_;
    Rng rng_;
    double exact_fraction_;
    std::vector<Word> bases_;
};

} // namespace approxnoc

#endif // APPROXNOC_TRAFFIC_DATA_PROVIDER_H
