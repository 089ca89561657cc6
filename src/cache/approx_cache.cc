#include "cache/approx_cache.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/log.h"

namespace approxnoc {

namespace {
std::uint32_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
}

TraceRecord
record(Cycle t, NodeId src, NodeId dst, std::uint32_t block)
{
    return {t, static_cast<std::uint16_t>(src),
            static_cast<std::uint16_t>(dst), block};
}
} // namespace

ApproxCacheSystem::ApproxCacheSystem(const CacheConfig &cfg,
                                     CodecSystem *codec)
    : cfg_(cfg), codec_(codec)
{
    ANOC_ASSERT(cfg.line_bytes % 4 == 0, "line size must be word multiple");
    ANOC_ASSERT(cfg.n_nodes == 2 * cfg.n_cores,
                "interleaved core/home mapping needs one home per core");
    const unsigned wpl = cfg.wordsPerLine();
    ANOC_ASSERT(std::has_single_bit(wpl), "line_bytes ", cfg.line_bytes,
                " holds ", wpl, " words, not a power of two");
    const std::size_t sets = cfg.l1_bytes / (cfg.line_bytes * cfg.assoc);
    ANOC_ASSERT(sets > 0, "L1 too small for one set");
    ANOC_ASSERT(std::has_single_bit(sets), "l1_bytes ", cfg.l1_bytes,
                " gives ", sets, " L1 sets, not a power of two");
    const std::size_t l2_sets =
        cfg.l2_bytes / (cfg.line_bytes * cfg.l2_assoc);
    ANOC_ASSERT(l2_sets > 0, "L2 too small for one set");
    ANOC_ASSERT(std::has_single_bit(l2_sets), "l2_bytes ", cfg.l2_bytes,
                " gives ", l2_sets, " L2 sets, not a power of two");
    word_bits_ = static_cast<unsigned>(std::countr_zero(wpl));
    word_mask_ = wpl - 1;
    set_mask_ = sets - 1;
    l2_set_mask_ = l2_sets - 1;

    l1_.resize(cfg.n_cores);
    for (auto &c : l1_) {
        c.ways.resize(sets * cfg.assoc);
        c.words.resize(c.ways.size() << word_bits_, 0);
    }
    core_time_.resize(cfg.n_cores, 0);
    l2_.resize(l2_sets * cfg.l2_assoc);
}

bool
ApproxCacheSystem::l2Access(std::size_t line_idx)
{
    std::size_t set = line_idx & l2_set_mask_;
    L2Way *victim = &l2_[set * cfg_.l2_assoc];
    for (unsigned w = 0; w < cfg_.l2_assoc; ++w) {
        L2Way &way = l2_[set * cfg_.l2_assoc + w];
        if (way.valid && way.tag == line_idx) {
            way.lru = ++l2_tick_;
            ++l2_hits_;
            return true;
        }
        if (!way.valid)
            victim = &way;
        else if (victim->valid && way.lru < victim->lru)
            victim = &way;
    }
    ++l2_misses_;
    victim->valid = true;
    victim->tag = line_idx;
    victim->lru = ++l2_tick_;
    return false;
}

std::size_t
ApproxCacheSystem::alloc(std::size_t words, const std::string &)
{
    // Line-align every region so annotations stay line-homogeneous.
    unsigned wpl = cfg_.wordsPerLine();
    std::size_t base = (mem_.size() + wpl - 1) / wpl * wpl;
    std::size_t padded = (words + wpl - 1) / wpl * wpl;
    mem_.resize(base + padded, 0);
    wtype_.resize(mem_.size(), DataType::Raw);
    line_block_.resize(mem_.size() >> word_bits_, TraceRecord::kNoBlock);
    return base;
}

void
ApproxCacheSystem::annotate(std::size_t base, std::size_t words, DataType t)
{
    ANOC_ASSERT(base + words <= mem_.size(), "annotation out of range");
    for (std::size_t i = 0; i < words; ++i)
        wtype_[base + i] = t;
}

void
ApproxCacheSystem::initWord(std::size_t addr, Word w)
{
    ANOC_ASSERT(addr < mem_.size(), "initWord out of range");
    mem_[addr] = w;
    line_block_[addr >> word_bits_] = TraceRecord::kNoBlock;
}

void
ApproxCacheSystem::initFloat(std::size_t addr, float v)
{
    initWord(addr, std::bit_cast<Word>(v));
}

void
ApproxCacheSystem::initInt(std::size_t addr, std::int32_t v)
{
    initWord(addr, static_cast<Word>(v));
}

Word
ApproxCacheSystem::peekWord(std::size_t addr) const
{
    ANOC_ASSERT(addr < mem_.size(), "peekWord out of range");
    return mem_[addr];
}

float
ApproxCacheSystem::peekFloat(std::size_t addr) const
{
    return std::bit_cast<float>(peekWord(addr));
}

std::int32_t
ApproxCacheSystem::peekInt(std::size_t addr) const
{
    return static_cast<std::int32_t>(peekWord(addr));
}

NodeId
ApproxCacheSystem::homeOf(std::size_t line_idx) const
{
    unsigned homes = cfg_.n_nodes - cfg_.n_cores;
    return nodeOfHome(static_cast<unsigned>(line_idx % homes));
}

bool
ApproxCacheSystem::lineApproximable(std::size_t line_idx, DataType &type) const
{
    unsigned wpl = cfg_.wordsPerLine();
    std::size_t base = line_idx * wpl;
    DataType t = wtype_[base];
    if (t == DataType::Raw)
        return false;
    for (unsigned i = 1; i < wpl; ++i)
        if (wtype_[base + i] != t)
            return false; // conservative: mixed-type lines stay precise
    type = t;
    return true;
}

std::size_t
ApproxCacheSystem::miss(unsigned core, std::size_t line_idx)
{
    const std::vector<Way> &ways = l1_[core].ways;
    const std::size_t first = (line_idx & set_mask_) * cfg_.assoc;
    // Victim: an invalid way if any, else the LRU way.
    std::size_t victim = first;
    for (std::size_t w = first; w < first + cfg_.assoc; ++w) {
        if (!ways[w].valid) {
            victim = w;
            break;
        }
        if (ways[w].lru < ways[victim].lru)
            victim = w;
    }
    fill(core, victim, line_idx);
    return victim;
}

void
ApproxCacheSystem::setTraceSink(CommTrace *trace)
{
    ANOC_ASSERT(!trace || cfg_.n_nodes - 1 <= TraceRecord::kMaxNode,
                "a trace records node ids up to ", TraceRecord::kMaxNode,
                ", not ", cfg_.n_nodes - 1);
    trace_ = trace;
    std::fill(line_block_.begin(), line_block_.end(), TraceRecord::kNoBlock);
}

void
ApproxCacheSystem::writeback(unsigned core, std::size_t way)
{
    ++writebacks_;
    const std::size_t tag = l1_[core].ways[way].tag;
    const Word *line = &l1_[core].words[way << word_bits_];
    const unsigned wpl = cfg_.wordsPerLine();
    std::copy_n(line, wpl, &mem_[tag << word_bits_]);
    if (trace_) {
        DataType t = DataType::Raw;
        lineApproximable(tag, t); // written-back data rides precise
        // Memory now holds these words, so a later fill shares them.
        const std::uint32_t blk = trace_->addBlock({line, wpl}, t, false);
        line_block_[tag] = blk;
        trace_->add(record(time_, nodeOfCore(core), homeOf(tag), blk));
    }
}

void
ApproxCacheSystem::fill(unsigned core, std::size_t way, std::size_t line_idx)
{
    ++misses_;
    L1 &c = l1_[core];
    if (c.ways[way].valid && c.ways[way].dirty)
        writeback(core, way);

    const unsigned wpl = cfg_.wordsPerLine();
    const Word *line = &mem_[line_idx << word_bits_];
    DataType type = DataType::Raw;
    // The approximable-packet-ratio knob: a deterministic draw per
    // line keeps behaviour reproducible across schemes.
    const bool approx =
        lineApproximable(line_idx, type) &&
        (mix(line_idx) % 10000) < cfg_.approx_ratio * 10000.0;
    NodeId home = homeOf(line_idx);
    NodeId core_node = nodeOfCore(core);
    Word *words = &c.words[way << word_bits_];

    // The home slice sends the memory line, or its canonical form when
    // Doppelganger dedup is on. Only the codec and the dedup table
    // read it as a DataBlock.
    std::span<const Word> sent(line, wpl);
    DataBlock precise;
    if (codec_ || dedup_) {
        precise = DataBlock(std::vector<Word>(sent.begin(), sent.end()),
                            type, approx);
        if (dedup_) {
            precise = dedup_->canonicalize(precise);
            sent = precise.words();
        }
    }

    Cycle penalty = cfg_.miss_base_cycles;
    if (!l2Access(line_idx))
        penalty += cfg_.l2_miss_cycles; // slice fetches from memory
    if (codec_ && home != core_node) {
        // The home node encodes, the requesting core decodes: encoder
        // state is keyed by home, decoder state by core_node
        // (compression/codec.h).
        EncodedBlock enc = codec_->encode(precise, home, core_node, time_);
        DataBlock delivered = codec_->decode(enc, home, core_node, time_);
        ANOC_ASSERT(delivered.size() == precise.size(),
                    "codec delivered ", delivered.size(), " words for a ",
                    precise.size(), "-word line");
        unsigned flits = 1 + static_cast<unsigned>((enc.bits() + 63) / 64);
        penalty += static_cast<Cycle>(flits) * cfg_.per_flit_cycles +
                   codec_->compressionLatency() +
                   codec_->decompressionLatency();
        std::copy(delivered.words().begin(), delivered.words().end(), words);
    } else {
        unsigned flits =
            1 + static_cast<unsigned>((sent.size() * 32 + 63) / 64);
        penalty += static_cast<Cycle>(flits) * cfg_.per_flit_cycles;
        std::copy(sent.begin(), sent.end(), words);
    }

    if (trace_) {
        // The trace carries the memory line, before canonicalization.
        // A line unchanged since its last recorded block shares that
        // block's words.
        trace_->add(
            record(time_, core_node, home, TraceRecord::kNoBlock));
        std::uint32_t &same = line_block_[line_idx];
        const std::uint32_t blk =
            same != TraceRecord::kNoBlock
                ? trace_->shareBlock(same, type, approx)
                : (same = trace_->addBlock({line, wpl}, type, approx));
        trace_->add(record(time_ + 1, home, core_node, blk));
    }

    Way &w = c.ways[way];
    w.valid = true;
    w.dirty = false;
    w.tag = line_idx;
    w.lru = ++c.tick;
    core_time_[core] += penalty;
    time_ += 1;
}

void
ApproxCacheSystem::barrier()
{
    for (unsigned core = 0; core < cfg_.n_cores; ++core) {
        for (std::size_t w = 0; w < l1_[core].ways.size(); ++w) {
            Way &way = l1_[core].ways[w];
            if (way.valid && way.dirty)
                writeback(core, w);
            way.valid = false;
            way.dirty = false;
        }
    }
    // Barrier cost: cores synchronize to the slowest.
    Cycle max_t = *std::max_element(core_time_.begin(), core_time_.end());
    std::fill(core_time_.begin(), core_time_.end(), max_t);
}

double
ApproxCacheSystem::missRate() const
{
    return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
}

void
ApproxCacheSystem::enableDoppelganger(const DoppelgangerConfig &cfg)
{
    dedup_ = std::make_unique<DoppelgangerTable>(cfg);
}

Cycle
ApproxCacheSystem::executionCycles() const
{
    return *std::max_element(core_time_.begin(), core_time_.end());
}

} // namespace approxnoc
