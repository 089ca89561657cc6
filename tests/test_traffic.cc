/** Traffic layer tests: patterns, providers, trace I/O, replay. */
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "traffic/data_provider.h"
#include "noc/network.h"
#include "sim/simulator.h"
#include "traffic/patterns.h"
#include "traffic/closed_loop.h"
#include "traffic/replay.h"
#include "traffic/trace.h"

using namespace approxnoc;

TEST(Patterns, NeverSelfAddressed)
{
    Rng rng(91);
    for (TrafficPattern p :
         {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
          TrafficPattern::BitComplement, TrafficPattern::Hotspot,
          TrafficPattern::Neighbor}) {
        for (unsigned n : {4u, 16u, 32u}) {
            for (NodeId src = 0; src < n; ++src) {
                for (int i = 0; i < 20; ++i) {
                    NodeId dst = pick_destination(p, src, n, rng);
                    ASSERT_NE(dst, src) << to_string(p);
                    ASSERT_LT(dst, n);
                }
            }
        }
    }
}

TEST(Patterns, TransposeOnSquareGrid)
{
    Rng rng(93);
    // 16 nodes = 4x4: node (x,y) -> (y,x); node 1 = (1,0) -> (0,1) = 4.
    EXPECT_EQ(pick_destination(TrafficPattern::Transpose, 1, 16, rng), 4u);
    EXPECT_EQ(pick_destination(TrafficPattern::Transpose, 7, 16, rng), 13u);
}

TEST(Patterns, NeighborWraps)
{
    Rng rng(95);
    EXPECT_EQ(pick_destination(TrafficPattern::Neighbor, 2, 8, rng), 3u);
    EXPECT_EQ(pick_destination(TrafficPattern::Neighbor, 7, 8, rng), 0u);
}

TEST(Patterns, FromString)
{
    EXPECT_EQ(pattern_from_string("ur"), TrafficPattern::UniformRandom);
    EXPECT_EQ(pattern_from_string("transpose"), TrafficPattern::Transpose);
}

TEST(DataProvider, SyntheticBlocksHaveRequestedShape)
{
    SyntheticDataProvider p(DataType::Float32, 16);
    for (int i = 0; i < 100; ++i) {
        DataBlock b = p.next(static_cast<NodeId>(i % 8));
        EXPECT_EQ(b.size(), 16u);
        EXPECT_EQ(b.type(), DataType::Float32);
        EXPECT_TRUE(b.approximable());
    }
}

TEST(DataProvider, SyntheticLocalityIsCompressible)
{
    // High-locality data must dictionary-compress well.
    SyntheticDataProvider p(DataType::Int32, 16, 0.95, 0.0, 5);
    CodecConfig cc;
    cc.n_nodes = 4;
    auto codec = CodecFactory::create(Scheme::DiComp, cc);
    Cycle t = 0;
    std::size_t raw_bits = 0, enc_bits = 0;
    for (int i = 0; i < 400; ++i) {
        DataBlock b = p.next(0);
        EncodedBlock e = codec->encode(b, 0, 1, t);
        codec->decode(e, 0, 1, t);
        raw_bits += b.sizeBits();
        enc_bits += e.bits();
        t += 30;
    }
    EXPECT_LT(enc_bits, raw_bits);
}

TEST(DataProvider, TraceProviderRoundRobins)
{
    CommTrace t;
    for (Word w = 0; w < 4; ++w)
        t.addBlock(DataBlock({w}, DataType::Int32, true));
    TraceDataProvider p(t);
    DataBlock a = p.next(0);
    DataBlock b = p.next(0);
    EXPECT_NE(a.word(0), b.word(0));
}

TEST(Trace, SaveLoadRoundTrip)
{
    CommTrace t;
    std::uint32_t b0 =
        t.addBlock(DataBlock({1, 2, 3}, DataType::Int32, true));
    std::uint32_t b1 = t.addBlock(
        DataBlock({0xDEADBEEF, 0xFFFFFFFF}, DataType::Float32, false));
    t.add(TraceRecord{0, 0, 1, TraceRecord::kNoBlock});
    t.add(TraceRecord{5, 2, 3, b0});
    t.add(TraceRecord{9, 1, 0, b1});

    std::string path = ::testing::TempDir() + "/trace_test.txt";
    t.save(path);
    CommTrace u = CommTrace::load(path);
    std::remove(path.c_str());

    ASSERT_EQ(u.size(), 3u);
    ASSERT_EQ(u.blockCount(), 2u);
    EXPECT_FALSE(u.records()[0].isData());
    EXPECT_EQ(u.records()[1].t, 5u);
    EXPECT_EQ(u.records()[1].block, b0);
    EXPECT_EQ(u.block(b0).copy(), t.block(b0).copy());
    EXPECT_EQ(u.block(b1).copy(), t.block(b1).copy());
    EXPECT_EQ(u.block(b1).type, DataType::Float32);
    EXPECT_FALSE(u.block(b1).approximable);
    EXPECT_EQ(u.duration(), 9u);
    EXPECT_NEAR(u.dataPacketRatio(), 2.0 / 3.0, 1e-12);
}

namespace {

/** @p n words that no other block of a test shares: block @p id's
 *  number in the high half, the word's index in the low half. */
std::vector<Word>
numbered_words(std::size_t n, std::uint32_t id)
{
    std::vector<Word> ws(n);
    for (std::size_t i = 0; i < n; ++i)
        ws[i] = (id << 16) | static_cast<Word>(i);
    return ws;
}

std::vector<Word>
words_of(const CommTrace::BlockView &b)
{
    return {b.words.begin(), b.words.end()};
}

/** The bytes of the file at @p path. */
std::string
file_bytes(const std::string &path)
{
    std::stringstream text;
    text << std::ifstream(path, std::ios::binary).rdbuf();
    return text.str();
}

/** 60 blocks of 1, 16 and kMaxBlockWords words in turn (about five
 *  16,384-word chunks), every fifth one sharing an earlier block's
 *  words, and a data record for each. @p want gets each block's
 *  words. */
CommTrace
blocks_across_chunks(std::vector<std::vector<Word>> &want)
{
    const std::size_t sizes[] = {1, 16, CommTrace::kMaxBlockWords};
    CommTrace t;
    for (std::uint32_t i = 0; i < 60; ++i) {
        const auto type = static_cast<DataType>(i % 3);
        const bool approx = i % 2 == 0;
        if (i % 5 == 4) {
            const std::uint32_t of = i / 2;
            EXPECT_EQ(t.shareBlock(of, type, approx), i);
            want.push_back(want[of]);
        } else {
            want.push_back(numbered_words(sizes[i % 3], i));
            EXPECT_EQ(t.addBlock(want.back(), type, approx), i);
        }
        t.add(TraceRecord{i, static_cast<std::uint16_t>(i % 32),
                          static_cast<std::uint16_t>((i + 1) % 32), i});
    }
    return t;
}

} // namespace

/** Blocks of every size, appended across several chunk boundaries and
 *  shared, read back equal to the words they were given. */
TEST(TracePool, BlocksAcrossChunksReadBackEqual)
{
    std::vector<std::vector<Word>> want;
    const CommTrace t = blocks_across_chunks(want);
    ASSERT_EQ(t.blockCount(), want.size());
    EXPECT_GT(t.wordCount(), 4 * ChunkedPool<Word>::kPerChunk);
    for (std::uint32_t i = 0; i < t.blockCount(); ++i) {
        const CommTrace::BlockView b = t.block(i);
        EXPECT_EQ(words_of(b), want[i]) << "block " << i;
        EXPECT_EQ(b.type, static_cast<DataType>(i % 3)) << "block " << i;
        EXPECT_EQ(b.approximable, i % 2 == 0) << "block " << i;
    }
    // A shared block reads the very words of the block it shares.
    EXPECT_EQ(t.block(9).words.data(), t.block(4).words.data());
}

/** A view stays valid for the trace's whole life: across thousands of
 *  later appends, which a growing vector would have moved, and across
 *  a move of the trace. */
TEST(TracePool, BlockViewOutlivesAppendsAndMoves)
{
    CommTrace t;
    const std::vector<Word> first = numbered_words(16, 1);
    t.addBlock(first, DataType::Int32, true);
    t.add(TraceRecord{0, 0, 1, 0});
    const CommTrace::BlockView view = t.block(0);
    const TraceRecord *record = &t.records()[0];
    for (std::uint32_t i = 1; i < 5000; ++i) {
        t.addBlock(numbered_words(16, i + 1), DataType::Raw, false);
        t.add(TraceRecord{i, 0, 1, i});
    }
    const CommTrace moved = std::move(t);
    EXPECT_EQ(view.words.data(), moved.block(0).words.data());
    EXPECT_EQ(words_of(view), first);
    EXPECT_EQ(record, &moved.records()[0]);
    EXPECT_EQ(record->t, 0u);
    EXPECT_EQ(moved.records()[4999].block, 4999u);
}

/** wordCount() counts the words stored, not the chunk ends skipped: a
 *  word, then four kMaxBlockWords blocks, the last of which starts the
 *  second chunk. */
TEST(TracePool, WordCountExcludesSkippedChunkEnds)
{
    CommTrace t;
    t.addBlock(numbered_words(1, 0), DataType::Raw, false);
    for (std::uint32_t i = 1; i <= 4; ++i)
        t.addBlock(numbered_words(CommTrace::kMaxBlockWords, i),
                   DataType::Raw, false);
    EXPECT_EQ(t.wordCount(), 1 + 4 * CommTrace::kMaxBlockWords);
    EXPECT_EQ(words_of(t.block(4)),
              numbered_words(CommTrace::kMaxBlockWords, 4));
    t.shareBlock(4, DataType::Int32, true);
    EXPECT_EQ(t.wordCount(), 1 + 4 * CommTrace::kMaxBlockWords);
}

/** Saving a loaded trace writes the bytes it was loaded from; shared
 *  blocks are written in full and load back as copies. */
TEST(TracePool, SaveLoadSaveIsByteIdentical)
{
    std::vector<std::vector<Word>> want;
    const CommTrace t = blocks_across_chunks(want);
    const std::string a = ::testing::TempDir() + "pool_a.trace";
    const std::string b = ::testing::TempDir() + "pool_b.trace";
    t.save(a);
    const CommTrace u = CommTrace::load(a);
    u.save(b);
    EXPECT_EQ(file_bytes(a), file_bytes(b));
    ASSERT_EQ(u.blockCount(), want.size());
    for (std::uint32_t i = 0; i < u.blockCount(); ++i)
        EXPECT_EQ(words_of(u.block(i)), want[i]) << "block " << i;
    std::size_t words = 0;
    for (const auto &w : want)
        words += w.size();
    EXPECT_EQ(u.wordCount(), words);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------------
// Malformed traces fail loudly: exit 1 with a fatal: line naming the
// file (and, for a bad line, its line number), never a silent remap, a
// crash or an uncaught exception.
// ---------------------------------------------------------------------

namespace {

/** Write @p body to a fresh file under the test temp dir. */
std::string
write_trace(const std::string &name, const std::string &body)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << body;
    return path;
}

/** Load @p path and build a replay on the 32-node default network. */
void
load_and_replay(const std::string &path)
{
    CommTrace trace = CommTrace::load(path);
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::Baseline, cc);
    Network net(cfg, codec.get());
    TraceReplay replay(net, trace);
}

} // namespace

TEST(TraceErrors, EndpointOutsideNetworkIsFatal)
{
    std::string path = write_trace("endpoint.trace",
                                   "B int32 1 2 00000001 00000002\n"
                                   "R 0 999 3 D 0\n");
    EXPECT_EXIT(load_and_replay(path), ::testing::ExitedWithCode(1),
                "fatal: .*endpoint\\.trace: record 0 \\(t=0\\) sends "
                "999 -> 3, outside the 32-node network");
}

TEST(TraceErrors, MalformedHexWordIsFatal)
{
    std::string path =
        write_trace("hex.trace", "B int32 1 2 00000001 0000zz01\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*hex\\.trace:1: bad trace line: word 1 "
                "'0000zz01' is not a 32-bit hex number");
}

TEST(TraceErrors, UnknownDataTypeIsFatal)
{
    std::string path =
        write_trace("type.trace", "# header\nB flaot32 1 1 00000001\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*type\\.trace:2: bad trace line: unknown data "
                "type 'flaot32'");
}

TEST(TraceErrors, UnknownPacketClassIsFatal)
{
    std::string path = write_trace("class.trace",
                                   "B int32 1 1 00000001\nR 0 1 2 X 0\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*class\\.trace:2: bad trace line: packet class "
                "'X' is not D or C");
}

TEST(TraceErrors, OversizedWordCountIsFatal)
{
    std::string path =
        write_trace("count.trace", "B int32 1 99999999999 00000001\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*count\\.trace:1: bad trace line: word count "
                "'99999999999' is not a number in \\[0, 4096\\]");
}

TEST(TraceErrors, MissingRecordFieldsIsFatal)
{
    std::string path = write_trace("fields.trace", "R 0 1\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*fields\\.trace:1: bad trace line: record needs "
                "exactly");
}

TEST(TraceErrors, UndefinedBlockIndexIsFatal)
{
    std::string path = write_trace("block.trace", "R 0 1 2 D 0\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*block\\.trace:1: bad trace line: block index 0 "
                "has no B line before it");
}

TEST(TraceErrors, BackwardsTimeIsFatal)
{
    std::string path =
        write_trace("time.trace", "R 10 1 2 C -\nR 5 1 2 C -\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*time\\.trace:2: bad trace line: time 5 is "
                "before the previous record's 10");
}

TEST(TraceErrors, DataRecordWithoutBlockIsFatal)
{
    std::string path = write_trace("nodata.trace",
                                   "B int32 1 1 00000001\nR 5 0 1 D -\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*nodata\\.trace:2: bad trace line: data record "
                "has no block");
}

TEST(TraceErrors, ControlRecordWithBlockIsFatal)
{
    std::string path = write_trace("ctlblock.trace",
                                   "B int32 1 1 00000001\nR 5 0 1 C 0\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*ctlblock\\.trace:2: bad trace line: control "
                "record names block '0'");
}

TEST(TraceErrors, NodeIdAboveSixteenBitsIsFatal)
{
    // A record holds 16-bit node ids: 65,535 loads, 65,536 does not.
    std::string widest = write_trace("widest.trace", "R 0 65535 1 C -\n");
    EXPECT_EQ(CommTrace::load(widest).records()[0].src, 65535u);
    std::string path = write_trace("wide.trace",
                                   "R 0 1 2 C -\nR 1 3 65536 C -\n");
    EXPECT_EXIT(CommTrace::load(path), ::testing::ExitedWithCode(1),
                "fatal: .*wide\\.trace:2: bad trace line: destination "
                "'65536' is not a number in \\[0, 65535\\]");
}

namespace {

/** One seeded mutation of @p s: replace, insert or delete a byte, drop
 *  or duplicate a whitespace-separated token, or truncate. Half the new
 *  bytes come from the format's own alphabet, so that mutants get past
 *  the tokenizer to the checks on numbers, indices and order. */
std::string
mutate(std::string s, Rng &rng)
{
    static constexpr char kAlphabet[] = "0123456789abcdefx -#\nBRDC";
    const char c = rng.next(2)
                       ? kAlphabet[rng.next(sizeof(kAlphabet) - 1)]
                       : static_cast<char>(rng.next(256));
    switch (rng.next(6)) {
    case 0:
        if (!s.empty())
            s[rng.next(s.size())] = c;
        break;
    case 1:
        s.insert(s.begin() + static_cast<long>(rng.next(s.size() + 1)), c);
        break;
    case 2:
        if (!s.empty())
            s.erase(rng.next(s.size()), 1);
        break;
    case 3:
    case 4: {
        std::vector<std::pair<std::size_t, std::size_t>> tokens; // [b, e)
        for (std::size_t i = 0; i < s.size();) {
            if (std::isspace(static_cast<unsigned char>(s[i]))) {
                ++i;
                continue;
            }
            std::size_t b = i;
            while (i < s.size() &&
                   !std::isspace(static_cast<unsigned char>(s[i])))
                ++i;
            tokens.emplace_back(b, i);
        }
        if (tokens.empty())
            break;
        auto [b, e] = tokens[rng.next(tokens.size())];
        const std::string tok = s.substr(b, e - b);
        if (rng.next(2) == 0) {
            s.erase(b, e - b);
        } else {
            s.insert(e, tok);
            s.insert(e, 1, ' ');
        }
        break;
    }
    default:
        s.resize(rng.next(s.size() + 1));
    }
    return s;
}

} // namespace

/** Seeded mutation fuzz over the trace format: every mutant of a valid
 *  file either loads or exits 1 with a fatal: line naming the file and
 *  line; never a panic, an abort or an uncaught exception. */
TEST(TraceFuzz, MutantsLoadOrFailWithFileAndLine)
{
    CommTrace t;
    std::uint32_t i32 = t.addBlock(
        DataBlock({1, 0x7fffffff, 0x80000000}, DataType::Int32, true));
    std::uint32_t f32 = t.addBlock(
        DataBlock({0x3f800000, 0xc0490fdb}, DataType::Float32, false));
    std::uint32_t raw =
        t.addBlock(DataBlock({0xDEADBEEF}, DataType::Raw, true));
    t.add(TraceRecord{0, 0, 1, TraceRecord::kNoBlock});
    t.add(TraceRecord{3, 2, 31, i32});
    t.add(TraceRecord{3, 5, 4, f32});
    t.add(TraceRecord{17, 31, 0, raw});
    t.add(TraceRecord{40, 7, 6, TraceRecord::kNoBlock});
    const std::string path = ::testing::TempDir() + "trace_fuzz.txt";
    t.save(path);
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    const std::string valid = text.str();

    const auto ok_or_fatal = [](int status) {
        return WIFEXITED(status) &&
               (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
    };
    Rng rng(20170624);
    for (int k = 0; k < 200; ++k) {
        const std::string mutant = mutate(valid, rng);
        std::ofstream(path, std::ios::binary | std::ios::trunc) << mutant;
        EXPECT_EXIT(
            {
                CommTrace::load(path);
                std::fputs("loaded\n", stderr);
                std::exit(0);
            },
            ok_or_fatal,
            "loaded|fatal: .*trace_fuzz\\.txt:[0-9]+: bad trace line: ")
            << "mutant " << k << ":\n" << mutant;
    }
    std::remove(path.c_str());
}

TEST(Replay, InjectsEveryRecordOnce)
{
    CommTrace trace;
    std::uint32_t blk =
        trace.addBlock(DataBlock(std::vector<Word>(16, 7), DataType::Int32,
                                 true));
    for (Cycle t = 0; t < 200; t += 2) {
        trace.add(TraceRecord{t, static_cast<std::uint16_t>(t % 8),
                              static_cast<std::uint16_t>((t + 3) % 8),
                              t % 4 == 0 ? blk : TraceRecord::kNoBlock});
    }

    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    TraceReplay replay(net, trace);
    sim.add(&replay);

    ASSERT_TRUE(sim.runUntil(
        [&] { return replay.done() && net.drained(); }, 100000));
    EXPECT_EQ(replay.injected(), trace.size());
    EXPECT_EQ(net.stats().packets_delivered.value(), trace.size());
}

TEST(Replay, ApproxRatioZeroDisablesApproximation)
{
    CommTrace trace;
    std::uint32_t blk = trace.addBlock(
        DataBlock(std::vector<Word>(16, 0x00770008), DataType::Int32, true));
    for (Cycle t = 0; t < 100; ++t)
        trace.add(TraceRecord{t, 0, 5, blk});

    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    cc.error_threshold_pct = 20.0;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    TraceReplay replay(net, trace, 1.0, /*approx_ratio=*/0.0);
    sim.add(&replay);
    sim.runUntil([&] { return replay.done() && net.drained(); }, 100000);
    EXPECT_EQ(net.stats().quality.approximatedWords(), 0u);
    EXPECT_DOUBLE_EQ(net.stats().quality.meanRelativeError(), 0.0);
}

TEST(ClosedLoop, RequestReplyRoundTrips)
{
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);

    ClosedLoopConfig lc;
    lc.window = 2;
    SyntheticDataProvider provider(DataType::Int32);
    ClosedLoopTraffic gen(net, lc, provider);
    sim.add(&gen);

    sim.run(20000);
    gen.setEnabled(false);
    ASSERT_TRUE(sim.runUntil(
        [&] { return gen.quiesced() && net.drained(); }, 100000));

    EXPECT_GT(gen.repliesReceived(), 1000u);
    EXPECT_EQ(gen.repliesReceived(), gen.requestsIssued());
    // A round trip covers two traversals plus codec latency.
    EXPECT_GT(gen.roundTrip().mean(), 10.0);
    EXPECT_LT(gen.roundTrip().mean(), 200.0);
}

TEST(ClosedLoop, ThinkTimePastTheLastCycleParksTheCore)
{
    // next_issue = now + think must not wrap round to a past cycle: a
    // think time of kNeverCycle lets each core send one window only.
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::Baseline, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    ClosedLoopConfig lc;
    lc.window = 2;
    lc.think_time = kNeverCycle;
    SyntheticDataProvider provider(DataType::Int32);
    ClosedLoopTraffic gen(net, lc, provider);
    sim.add(&gen);
    sim.run(5000);
    ASSERT_TRUE(gen.quiesced());
    EXPECT_EQ(gen.requestsIssued(), lc.window * (cfg.nodes() / 2));
    EXPECT_EQ(gen.repliesReceived(), gen.requestsIssued());
}

TEST(ClosedLoop, WindowBoundsOutstandingLoad)
{
    // Closed loops self-throttle: even a tiny think time cannot push
    // the network into divergence; everything quiesces.
    NocConfig cfg;
    CodecConfig cc;
    cc.n_nodes = cfg.nodes();
    auto codec = CodecFactory::create(Scheme::Baseline, cc);
    Network net(cfg, codec.get());
    Simulator sim;
    net.attach(sim);
    ClosedLoopConfig lc;
    lc.window = 8;
    lc.think_time = 0;
    SyntheticDataProvider provider(DataType::Float32);
    ClosedLoopTraffic gen(net, lc, provider);
    sim.add(&gen);
    sim.run(15000);
    gen.setEnabled(false);
    ASSERT_TRUE(sim.runUntil(
        [&] { return gen.quiesced() && net.drained(); }, 200000));
    EXPECT_EQ(gen.repliesReceived(), gen.requestsIssued());
}
