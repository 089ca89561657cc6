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
#include <span>
#include <string>
#include <vector>

#include "common/chunked_pool.h"
#include "common/data_block.h"
#include "common/log.h"
#include "common/types.h"

namespace approxnoc {

/** One packet in a trace: 16 bytes. */
struct TraceRecord {
    Cycle t = 0;
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    /** Index of the block a data record carries; kNoBlock for a
     * control record. */
    std::uint32_t block = kNoBlock;

    static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
    /** Largest node id a record holds. */
    static constexpr NodeId kMaxNode =
        std::numeric_limits<std::uint16_t>::max();

    bool isData() const { return block != kNoBlock; }
};
static_assert(sizeof(TraceRecord) == 16);

/**
 * A full trace: time-ordered records plus the blocks they carry. Every
 * block keeps its own index, in the order it was added, but blocks
 * with equal words may share them: a block is an 8-byte header (offset
 * and size in one word pool, type, approximable flag). addBlock()
 * appends its words; shareBlock() points a new header at an earlier
 * block's words. The cache model shares the words of a line whose
 * memory has not changed since it was last recorded.
 *
 * Words, headers and records live in ChunkedPools: recording never
 * copies or frees a growing buffer, and nothing stored ever moves.
 * A block's words sit in one chunk. A trace is move-only.
 */
class CommTrace
{
  public:
    /** A record count that stands for every record of a trace. */
    static constexpr std::size_t kWholeTrace =
        std::numeric_limits<std::size_t>::max();

    /** Largest block a trace holds; cache blocks are 16 words. */
    static constexpr std::size_t kMaxBlockWords = 4096;

    /** The time-ordered records: indexed, sized and iterable. */
    using Records = ChunkedPool<TraceRecord>;

    /** Block i: its words in the pool and its metadata. The view is
     * valid as long as the trace, across a move too. */
    struct BlockView {
        std::span<const Word> words;
        DataType type = DataType::Raw;
        bool approximable = false;

        /** An owning copy, as a packet carries it. */
        DataBlock copy() const
        {
            return DataBlock(std::vector<Word>(words.begin(), words.end()),
                             type, approximable);
        }
    };

    /** Append a block with its own copy of @p words; returns its index.
     * Panics past kMaxBlockWords words or a pool offset of 2^32. */
    std::uint32_t addBlock(std::span<const Word> words, DataType type,
                           bool approximable)
    {
        ANOC_ASSERT(words.size() <= kMaxBlockWords, "a ", words.size(),
                    "-word block exceeds ", kMaxBlockWords, " words");
        const std::size_t at = words_.append(words);
        ANOC_ASSERT(at <= std::numeric_limits<std::uint32_t>::max(),
                    "trace word pool outgrows 32-bit offsets");
        stored_words_ += words.size();
        blocks_.push_back({static_cast<std::uint32_t>(at),
                           static_cast<std::uint16_t>(words.size()), type,
                           approximable});
        return static_cast<std::uint32_t>(blocks_.size() - 1);
    }
    std::uint32_t addBlock(const DataBlock &b)
    {
        return addBlock(b.words(), b.type(), b.approximable());
    }

    /** Append a block that shares block @p of's words and carries its
     * own @p type and @p approximable flag; returns its index. */
    std::uint32_t shareBlock(std::uint32_t of, DataType type,
                             bool approximable)
    {
        ANOC_ASSERT(of < blocks_.size(), "shared block ", of, " is unknown");
        BlockHeader h = blocks_[of];
        h.type = type;
        h.approximable = approximable;
        blocks_.push_back(h);
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

    const Records &records() const { return records_; }

    std::size_t blockCount() const { return blocks_.size(); }
    BlockView block(std::uint32_t i) const
    {
        const BlockHeader &h = blocks_[i];
        return {words_.run(h.offset, h.size), h.type, h.approximable};
    }
    /** Words the pool stores; a shared block adds none, and the chunk
     * ends a block's words skipped are not counted. */
    std::size_t wordCount() const { return stored_words_; }

    /**
     * Every block as an owning copy, in index order. Kept only as an
     * adapter for the repository benchmark's `traced_replay`, which
     * iterates it; everything else reads blockCount() and block(i).
     */
    std::vector<DataBlock> blocks() const;

    bool empty() const { return records_.empty(); }
    std::size_t size() const { return records_.size(); }

    /** Last record timestamp (0 when empty). */
    Cycle duration() const;

    /** Fraction of records that are data packets. */
    double dataPacketRatio() const;

    /** Serialize to the textual trace format, every block in full.
     * Fatal when the file cannot be opened or written in full. */
    void save(const std::string &path) const;

    /**
     * Parse the textual trace format. A malformed file is a fatal
     * error naming the file and line: an unknown tag, type or packet
     * class, a missing, extra or non-numeric field, a block of more
     * than kMaxBlockWords words, a node id above TraceRecord::kMaxNode,
     * a record naming a block no earlier line defined, or a timestamp
     * below its predecessor's.
     */
    static CommTrace load(const std::string &path);

    /** The file load() read this trace from; empty when built in
     * memory. Error messages about the trace name it. */
    const std::string &origin() const { return origin_; }

  private:
    /** Where a block's words sit in words_, and its metadata. */
    struct BlockHeader {
        std::uint32_t offset = 0;
        std::uint16_t size = 0;
        DataType type = DataType::Raw;
        bool approximable = false;
    };
    static_assert(sizeof(BlockHeader) == 8);

    static_assert(kMaxBlockWords <= ChunkedPool<Word>::kPerChunk);

    ChunkedPool<Word> words_;
    ChunkedPool<BlockHeader> blocks_;
    Records records_;
    std::size_t stored_words_ = 0;
    std::string origin_;
};

} // namespace approxnoc

#endif // APPROXNOC_TRAFFIC_TRACE_H
