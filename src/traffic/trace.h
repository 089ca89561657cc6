/**
 * @file
 * Communication traces: the timestamped packet stream (with data
 * payloads) a workload run produces, replayable through the NoC under
 * any scheme — the paper's trace-driven methodology (Sec. 5.1).
 */
#ifndef APPROXNOC_TRAFFIC_TRACE_H
#define APPROXNOC_TRAFFIC_TRACE_H

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/data_block.h"
#include "common/log.h"
#include "common/types.h"

namespace approxnoc {

/** One packet in a trace. */
struct TraceRecord {
    Cycle t = 0;
    NodeId src = 0;
    NodeId dst = 0;
    PacketClass cls = PacketClass::Control;
    /** Index into CommTrace::blocks(), or kNoBlock for control. */
    std::uint32_t block = kNoBlock;

    static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
};

/**
 * A full trace: time-ordered records plus the pool of blocks they
 * carry. The pool is not deduplicated: addBlock() appends every block
 * it is given, and the cache model adds one per data record, in record
 * order. fig12_throughput replays blocks() in that order as its
 * payload stream.
 */
class CommTrace
{
  public:
    /** A record count that stands for every record of a trace. */
    static constexpr std::size_t kWholeTrace =
        std::numeric_limits<std::size_t>::max();

    /** Register a payload block; returns its index. */
    std::uint32_t addBlock(DataBlock b)
    {
        blocks_.push_back(std::move(b));
        return static_cast<std::uint32_t>(blocks_.size() - 1);
    }

    /** Append a record (timestamps must be non-decreasing). */
    void add(const TraceRecord &r)
    {
        ANOC_ASSERT(records_.empty() || records_.back().t <= r.t,
                    "trace records must be time-ordered");
        ANOC_ASSERT(r.block == TraceRecord::kNoBlock ||
                        r.block < blocks_.size(),
                    "trace record references unknown block");
        records_.push_back(r);
    }

    const std::vector<TraceRecord> &records() const { return records_; }
    const std::vector<DataBlock> &blocks() const { return blocks_; }
    const DataBlock &block(std::uint32_t i) const { return blocks_[i]; }

    bool empty() const { return records_.empty(); }
    std::size_t size() const { return records_.size(); }

    /** Last record timestamp (0 when empty). */
    Cycle duration() const;

    /** Fraction of records that are data packets. */
    double dataPacketRatio() const;

    /** Serialize to the textual trace format. */
    void save(const std::string &path) const;

    /**
     * Parse the textual trace format. A malformed file is a fatal
     * error naming the file and line: an unknown tag, type or packet
     * class, a missing, extra or non-numeric field, a block of more
     * than kMaxBlockWords words, a record naming a block no earlier
     * line defined, or a timestamp below its predecessor's.
     */
    static CommTrace load(const std::string &path);

    /** Largest block load() accepts; cache blocks are 16 words. */
    static constexpr std::size_t kMaxBlockWords = 4096;

    /** The file load() read this trace from; empty when built in
     * memory. Error messages about the trace name it. */
    const std::string &origin() const { return origin_; }

  private:
    std::vector<DataBlock> blocks_;
    std::vector<TraceRecord> records_;
    std::string origin_;
};

} // namespace approxnoc

#endif // APPROXNOC_TRAFFIC_TRACE_H
