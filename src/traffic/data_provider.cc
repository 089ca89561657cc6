#include "traffic/data_provider.h"

#include <bit>
#include <cmath>

#include "common/bits.h"
#include "common/cli.h"
#include "common/log.h"

namespace approxnoc {

DataType
synthetic_data_type(const CliArgs &args)
{
    const std::string type = args.getString("type", "float");
    if (type == "int")
        return DataType::Int32;
    if (type != "float")
        ANOC_FATAL("flag --type expects int or float, got '", type, "'");
    return DataType::Float32;
}

TraceDataProvider::TraceDataProvider(const CommTrace &trace) : trace_(trace)
{
    ANOC_ASSERT(trace_.blockCount() > 0, "trace data provider needs blocks");
}

DataBlock
TraceDataProvider::next(NodeId src)
{
    if (cursor_.size() <= src)
        cursor_.resize(src + 1, static_cast<std::size_t>(src));
    std::size_t &c = cursor_[src];
    const std::size_t i = c % trace_.blockCount();
    c += 1;
    return trace_.block(static_cast<std::uint32_t>(i)).copy();
}

SyntheticDataProvider::SyntheticDataProvider(DataType type,
                                             std::size_t words_per_block,
                                             double locality,
                                             double spread_pct,
                                             std::uint64_t seed,
                                             double exact_fraction,
                                             std::size_t n_bases)
    : type_(type), words_(words_per_block), locality_(locality),
      spread_pct_(spread_pct), rng_(seed), exact_fraction_(exact_fraction)
{
    // A shared pool of hot values; nodes index into it so senders to a
    // common destination exhibit overlapping value locality.
    for (std::size_t i = 0; i < n_bases; ++i) {
        if (type_ == DataType::Float32) {
            float v = static_cast<float>(rng_.uniform(0.5, 100.0));
            bases_.push_back(std::bit_cast<Word>(v));
        } else {
            bases_.push_back(static_cast<Word>(rng_.range(-50000, 50000)));
        }
    }
}

Word
SyntheticDataProvider::jitter(Word base, NodeId)
{
    double f = 1.0 + rng_.uniform(-spread_pct_, spread_pct_) / 100.0;
    if (type_ == DataType::Float32) {
        float v = std::bit_cast<float>(base) * static_cast<float>(f);
        return std::bit_cast<Word>(v);
    }
    double v = static_cast<double>(static_cast<std::int32_t>(base)) * f;
    return static_cast<Word>(static_cast<std::int32_t>(std::lround(v)));
}

DataBlock
SyntheticDataProvider::next(NodeId src)
{
    std::vector<Word> ws;
    ws.reserve(words_);
    for (std::size_t i = 0; i < words_; ++i) {
        if (rng_.chance(locality_)) {
            Word base = bases_[rng_.next(bases_.size())];
            ws.push_back(rng_.chance(exact_fraction_) ? base
                                                      : jitter(base, src));
        } else if (rng_.chance(0.3)) {
            ws.push_back(0); // zero words are frequent in practice
        } else if (type_ == DataType::Float32) {
            float v = static_cast<float>(rng_.uniform(-1e6, 1e6));
            ws.push_back(std::bit_cast<Word>(v));
        } else {
            ws.push_back(static_cast<Word>(rng_.bits()));
        }
    }
    return DataBlock(std::move(ws), type_, true);
}

} // namespace approxnoc
