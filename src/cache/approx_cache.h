/**
 * @file
 * The full-system substitute for the paper's gem5 + Pin methodology
 * (Sec. 5.4): a multicore private-L1 cache model over a shared memory
 * image, where every L1 miss emulates a data response packet from a
 * remote home node. The response block runs through the APPROX-NoC
 * codec, so the *approximated* data is installed and consumed by the
 * workload — application output error propagates exactly as it would
 * with approximation on the NoC response path.
 *
 * Coherence model: cores write-allocate into private L1s and write
 * back on eviction; workloads partition writable data across cores and
 * call barrier() between phases (write-back + invalidate-all), making
 * the system coherent at barriers. This matches how the data-parallel
 * PARSEC kernels actually share data.
 */
#ifndef APPROXNOC_CACHE_APPROX_CACHE_H
#define APPROXNOC_CACHE_APPROX_CACHE_H

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/doppelganger.h"
#include "common/data_block.h"
#include "common/log.h"
#include "common/types.h"
#include "compression/codec.h"
#include "traffic/trace.h"

namespace approxnoc {

/**
 * Cache-system parameters (paper Sec. 5.4: 16 cores, 64 KB 2-way).
 * Words per line and the L1 and L2 set counts must be powers of two:
 * the model addresses with shifts and masks, and its constructor
 * panics on any other geometry.
 */
struct CacheConfig {
    unsigned n_cores = 16;
    unsigned n_nodes = 32;      ///< network endpoints (cores + homes)
    std::size_t l1_bytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned line_bytes = 64;   ///< 16 words
    /** Shared L2, distributed across the home slices (Table 1: 2 MB). */
    std::size_t l2_bytes = 2 * 1024 * 1024;
    unsigned l2_assoc = 8;
    Cycle hit_cycles = 1;
    Cycle miss_base_cycles = 24; ///< request + directory overhead
    Cycle l2_miss_cycles = 100;  ///< memory access behind the slice
    Cycle per_flit_cycles = 1;   ///< serialization of the response
    double approx_ratio = 0.75;  ///< Table 1 default
    std::uint64_t seed = 99;

    unsigned wordsPerLine() const { return line_bytes / 4; }
};

/**
 * Word-addressed approximate memory system. Addresses are in words.
 */
class ApproxCacheSystem
{
  public:
    /** @param codec borrowed; nullptr means precise (no emulation). */
    ApproxCacheSystem(const CacheConfig &cfg, CodecSystem *codec);

    const CacheConfig &config() const { return cfg_; }

    /** @name Allocation and annotation */
    ///@{
    /** Reserve @p words words; returns the base word address. */
    std::size_t alloc(std::size_t words, const std::string &name);
    /** Mark [base, base+words) as approximable data of type @p t. */
    void annotate(std::size_t base, std::size_t words, DataType t);
    ///@}

    /** @name Precise (non-simulated) access, for init and readback */
    ///@{
    void initWord(std::size_t addr, Word w);
    void initFloat(std::size_t addr, float v);
    void initInt(std::size_t addr, std::int32_t v);
    Word peekWord(std::size_t addr) const;
    float peekFloat(std::size_t addr) const;
    std::int32_t peekInt(std::size_t addr) const;
    ///@}

    /** @name Simulated per-core accesses */
    ///@{
    Word load(unsigned core, std::size_t addr)
    {
        ANOC_ASSERT(core < cfg_.n_cores && addr < mem_.size(),
                    "load out of range");
        const std::size_t way = access(core, addr);
        return l1_[core].words[(way << word_bits_) | (addr & word_mask_)];
    }
    void store(unsigned core, std::size_t addr, Word w)
    {
        ANOC_ASSERT(core < cfg_.n_cores && addr < mem_.size(),
                    "store out of range");
        const std::size_t way = access(core, addr); // write-allocate
        L1 &c = l1_[core];
        c.words[(way << word_bits_) | (addr & word_mask_)] = w;
        c.ways[way].dirty = true;
    }
    float loadFloat(unsigned core, std::size_t addr)
    {
        return std::bit_cast<float>(load(core, addr));
    }
    void storeFloat(unsigned core, std::size_t addr, float v)
    {
        store(core, addr, std::bit_cast<Word>(v));
    }
    std::int32_t loadInt(unsigned core, std::size_t addr)
    {
        return static_cast<std::int32_t>(load(core, addr));
    }
    void storeInt(unsigned core, std::size_t addr, std::int32_t v)
    {
        store(core, addr, static_cast<Word>(v));
    }
    ///@}

    /** Write back every dirty line and invalidate all L1s. */
    void barrier();

    /**
     * Attach a trace sink (nullptr detaches); misses and writebacks are
     * recorded into it. A fill of a line whose memory has not changed
     * since the line was last recorded shares that block's words
     * (CommTrace::shareBlock) instead of copying them.
     */
    void setTraceSink(CommTrace *trace);

    /**
     * Enable Doppelganger-style approximate dedup at the home slices
     * (paper Sec. 6's synergy): response blocks are canonicalized
     * before they enter the NoC codec path.
     */
    void enableDoppelganger(const DoppelgangerConfig &cfg);
    /** The dedup table, when enabled (stats); nullptr otherwise. */
    const DoppelgangerTable *doppelganger() const { return dedup_.get(); }

    /** @name Stats */
    ///@{
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }
    std::uint64_t l2Hits() const { return l2_hits_; }
    std::uint64_t l2Misses() const { return l2_misses_; }
    double missRate() const;
    /** Execution time estimate: the slowest core's cycle count. */
    Cycle executionCycles() const;
    ///@}

    /**
     * Network endpoint of core @p c. Cores and L2 home slices
     * interleave (core c at node 2c, home h at node 2h+1) so each
     * cmesh router hosts one core and one slice, as in the paper's
     * tiled layout.
     */
    NodeId nodeOfCore(unsigned c) const { return 2 * c; }
    /** Network endpoint of home slice @p h. */
    NodeId nodeOfHome(unsigned h) const { return 2 * h + 1; }

  private:
    /** One L1 way's tag state; its words are a line of L1::words. */
    struct Way {
        std::size_t tag = 0; ///< line index in memory
        std::uint64_t lru = 0;
        bool valid = false;
        bool dirty = false;
    };
    struct L1 {
        std::vector<Way> ways;   ///< sets * assoc, way-major within set
        std::vector<Word> words; ///< way w's line at w << word_bits_
        std::uint64_t tick = 0;
    };

    /**
     * Count an access by @p core to word @p addr and return the index
     * of the L1 way that holds its line, filling the way on a miss.
     */
    std::size_t access(unsigned core, std::size_t addr)
    {
        ++accesses_;
        core_time_[core] += cfg_.hit_cycles;
        time_ += 1;
        const std::size_t line_idx = addr >> word_bits_;
        L1 &c = l1_[core];
        const std::size_t first = (line_idx & set_mask_) * cfg_.assoc;
        for (std::size_t w = first; w < first + cfg_.assoc; ++w) {
            Way &way = c.ways[w];
            if (way.valid && way.tag == line_idx) {
                way.lru = ++c.tick;
                return w;
            }
        }
        return miss(core, line_idx);
    }
    /** The miss path of access(): pick a victim way and fill it. */
    std::size_t miss(unsigned core, std::size_t line_idx);
    void fill(unsigned core, std::size_t way, std::size_t line_idx);
    /** Tag-only lookup+fill at the home slice; true on L2 hit. */
    bool l2Access(std::size_t line_idx);
    void writeback(unsigned core, std::size_t way);
    NodeId homeOf(std::size_t line_idx) const;
    bool lineApproximable(std::size_t line_idx, DataType &type) const;

    CacheConfig cfg_;
    CodecSystem *codec_;
    std::vector<Word> mem_;
    std::vector<DataType> wtype_; ///< per-word annotation (Raw = none)
    std::vector<L1> l1_;
    std::vector<Cycle> core_time_;
    unsigned word_bits_ = 0;    ///< log2(words per line)
    std::size_t word_mask_ = 0; ///< words per line - 1
    std::size_t set_mask_ = 0;  ///< L1 sets - 1
    Cycle time_ = 0; ///< global logical time for codec/trace
    CommTrace *trace_ = nullptr;
    /**
     * Per memory line, the trace_ block whose words equal the line's
     * memory, or TraceRecord::kNoBlock. A writeback sets it; initWord,
     * alloc and setTraceSink clear it.
     */
    std::vector<std::uint32_t> line_block_;
    std::unique_ptr<DoppelgangerTable> dedup_;

    /**
     * Shared-L2 home slices, tag-only (data always comes from the
     * memory image; the tags model hit/miss timing and traffic).
     */
    struct L2Way {
        bool valid = false;
        std::size_t tag = 0;
        std::uint64_t lru = 0;
    };
    std::vector<L2Way> l2_;
    std::size_t l2_set_mask_ = 0; ///< L2 sets - 1
    std::uint64_t l2_tick_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t l2_hits_ = 0;
    std::uint64_t l2_misses_ = 0;
};

} // namespace approxnoc

#endif // APPROXNOC_CACHE_APPROX_CACHE_H
