#include "cache/approx_cache.h"

#include <algorithm>
#include <bit>

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
} // namespace

ApproxCacheSystem::ApproxCacheSystem(const CacheConfig &cfg,
                                     CodecSystem *codec)
    : cfg_(cfg), codec_(codec)
{
    ANOC_ASSERT(cfg.line_bytes % 4 == 0, "line size must be word multiple");
    ANOC_ASSERT(cfg.n_nodes == 2 * cfg.n_cores,
                "interleaved core/home mapping needs one home per core");
    sets_ = static_cast<unsigned>(cfg.l1_bytes / (cfg.line_bytes * cfg.assoc));
    ANOC_ASSERT(sets_ > 0, "L1 too small for one set");
    l1_.resize(cfg.n_cores);
    for (auto &c : l1_) {
        c.lines.resize(static_cast<std::size_t>(sets_) * cfg.assoc);
        for (auto &l : c.lines)
            l.data.resize(cfg.wordsPerLine(), 0);
    }
    core_time_.resize(cfg.n_cores, 0);

    l2_sets_ = static_cast<unsigned>(cfg.l2_bytes /
                                     (cfg.line_bytes * cfg.l2_assoc));
    ANOC_ASSERT(l2_sets_ > 0, "L2 too small for one set");
    l2_.resize(static_cast<std::size_t>(l2_sets_) * cfg.l2_assoc);
}

bool
ApproxCacheSystem::l2Access(std::size_t line_idx)
{
    std::size_t set = line_idx % l2_sets_;
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

DataBlock
ApproxCacheSystem::lineBlock(std::size_t line_idx) const
{
    unsigned wpl = cfg_.wordsPerLine();
    std::size_t base = line_idx * wpl;
    std::vector<Word> ws(mem_.begin() + base, mem_.begin() + base + wpl);
    DataType type;
    DataBlock b(std::move(ws), DataType::Raw, false);
    if (lineApproximable(line_idx, type)) {
        b.setType(type);
        // The approximable-packet-ratio knob: a deterministic draw per
        // line keeps behaviour reproducible across schemes.
        bool approx = (mix(line_idx) % 10000) < cfg_.approx_ratio * 10000.0;
        b.setApproximable(approx);
    }
    return b;
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

ApproxCacheSystem::Line &
ApproxCacheSystem::lookup(unsigned core, std::size_t line_idx, bool &hit)
{
    L1 &c = l1_[core];
    std::size_t set = line_idx % sets_;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Line &l = c.lines[set * cfg_.assoc + w];
        if (l.valid && l.tag == line_idx) {
            hit = true;
            l.lru = ++c.tick;
            return l;
        }
    }
    hit = false;
    // Victim: an invalid way if any, else the LRU way.
    Line *victim = &c.lines[set * cfg_.assoc];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Line &l = c.lines[set * cfg_.assoc + w];
        if (!l.valid)
            return l;
        if (l.lru < victim->lru)
            victim = &l;
    }
    return *victim;
}

void
ApproxCacheSystem::writeback(unsigned core, const Line &way)
{
    ++writebacks_;
    unsigned wpl = cfg_.wordsPerLine();
    std::size_t base = way.tag * wpl;
    std::copy(way.data.begin(), way.data.end(), mem_.begin() + base);
    if (trace_) {
        DataBlock b(way.data, DataType::Raw, false);
        DataType t;
        if (lineApproximable(way.tag, t))
            b.setType(t); // written-back data rides precise
        std::uint32_t blk = trace_->addBlock(std::move(b));
        trace_->add(TraceRecord{time_, nodeOfCore(core), homeOf(way.tag),
                                PacketClass::Data, blk});
    }
}

void
ApproxCacheSystem::fill(unsigned core, Line &way, std::size_t line_idx)
{
    ++misses_;
    ++miss_seq_;
    if (way.valid && way.dirty)
        writeback(core, way);

    DataBlock precise = lineBlock(line_idx);
    if (dedup_)
        precise = dedup_->canonicalize(precise);
    NodeId home = homeOf(line_idx);
    NodeId core_node = nodeOfCore(core);

    Cycle penalty = cfg_.miss_base_cycles;
    if (!l2Access(line_idx))
        penalty += cfg_.l2_miss_cycles; // slice fetches from memory
    if (codec_ && home != core_node) {
        // The home node encodes, the requesting core decodes: encoder
        // state is keyed by home, decoder state by core_node
        // (compression/codec.h).
        EncodedBlock enc = codec_->encodeBlock(precise, home, core_node, time_);
        DataBlock delivered = codec_->decodeBlock(enc, home, core_node, time_);
        unsigned flits = 1 + static_cast<unsigned>((enc.bits() + 63) / 64);
        penalty += static_cast<Cycle>(flits) * cfg_.per_flit_cycles +
                   codec_->compressionLatency() +
                   codec_->decompressionLatency();
        way.data = delivered.words();
    } else {
        unsigned flits =
            1 + static_cast<unsigned>((precise.sizeBits() + 63) / 64);
        penalty += static_cast<Cycle>(flits) * cfg_.per_flit_cycles;
        way.data = precise.words();
    }

    if (trace_) {
        trace_->add(TraceRecord{time_, core_node, home, PacketClass::Control,
                                TraceRecord::kNoBlock});
        std::uint32_t blk = trace_->addBlock(lineBlock(line_idx));
        trace_->add(
            TraceRecord{time_ + 1, home, core_node, PacketClass::Data, blk});
    }

    way.valid = true;
    way.dirty = false;
    way.tag = line_idx;
    way.lru = ++l1_[core].tick;
    core_time_[core] += penalty;
    time_ += 1;
}

Word
ApproxCacheSystem::load(unsigned core, std::size_t addr)
{
    ANOC_ASSERT(core < cfg_.n_cores && addr < mem_.size(),
                "load out of range");
    ++accesses_;
    core_time_[core] += cfg_.hit_cycles;
    time_ += 1;
    std::size_t line_idx = addr / cfg_.wordsPerLine();
    bool hit;
    Line &way = lookup(core, line_idx, hit);
    if (!hit)
        fill(core, way, line_idx);
    return way.data[addr % cfg_.wordsPerLine()];
}

void
ApproxCacheSystem::store(unsigned core, std::size_t addr, Word w)
{
    ANOC_ASSERT(core < cfg_.n_cores && addr < mem_.size(),
                "store out of range");
    ++accesses_;
    core_time_[core] += cfg_.hit_cycles;
    time_ += 1;
    std::size_t line_idx = addr / cfg_.wordsPerLine();
    bool hit;
    Line &way = lookup(core, line_idx, hit);
    if (!hit)
        fill(core, way, line_idx); // write-allocate
    way.data[addr % cfg_.wordsPerLine()] = w;
    way.dirty = true;
}

float
ApproxCacheSystem::loadFloat(unsigned core, std::size_t addr)
{
    return std::bit_cast<float>(load(core, addr));
}

void
ApproxCacheSystem::storeFloat(unsigned core, std::size_t addr, float v)
{
    store(core, addr, std::bit_cast<Word>(v));
}

std::int32_t
ApproxCacheSystem::loadInt(unsigned core, std::size_t addr)
{
    return static_cast<std::int32_t>(load(core, addr));
}

void
ApproxCacheSystem::storeInt(unsigned core, std::size_t addr, std::int32_t v)
{
    store(core, addr, static_cast<Word>(v));
}

void
ApproxCacheSystem::barrier()
{
    for (unsigned core = 0; core < cfg_.n_cores; ++core) {
        for (auto &l : l1_[core].lines) {
            if (l.valid && l.dirty)
                writeback(core, l);
            l.valid = false;
            l.dirty = false;
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
