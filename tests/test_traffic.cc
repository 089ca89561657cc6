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
    std::vector<DataBlock> blocks;
    for (Word w = 0; w < 4; ++w)
        blocks.push_back(DataBlock({w}, DataType::Int32, true));
    TraceDataProvider p(blocks);
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
    t.add(TraceRecord{0, 0, 1, PacketClass::Control, TraceRecord::kNoBlock});
    t.add(TraceRecord{5, 2, 3, PacketClass::Data, b0});
    t.add(TraceRecord{9, 1, 0, PacketClass::Data, b1});

    std::string path = ::testing::TempDir() + "/trace_test.txt";
    t.save(path);
    CommTrace u = CommTrace::load(path);
    std::remove(path.c_str());

    ASSERT_EQ(u.size(), 3u);
    ASSERT_EQ(u.blocks().size(), 2u);
    EXPECT_EQ(u.records()[0].cls, PacketClass::Control);
    EXPECT_EQ(u.records()[1].t, 5u);
    EXPECT_EQ(u.records()[1].block, b0);
    EXPECT_TRUE(u.block(b0).sameBits(t.block(b0)));
    EXPECT_TRUE(u.block(b1).sameBits(t.block(b1)));
    EXPECT_EQ(u.block(b1).type(), DataType::Float32);
    EXPECT_FALSE(u.block(b1).approximable());
    EXPECT_EQ(u.duration(), 9u);
    EXPECT_NEAR(u.dataPacketRatio(), 2.0 / 3.0, 1e-12);
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
    t.add(TraceRecord{0, 0, 1, PacketClass::Control, TraceRecord::kNoBlock});
    t.add(TraceRecord{3, 2, 31, PacketClass::Data, i32});
    t.add(TraceRecord{3, 5, 4, PacketClass::Data, f32});
    t.add(TraceRecord{17, 31, 0, PacketClass::Data, raw});
    t.add(TraceRecord{40, 7, 6, PacketClass::Control, TraceRecord::kNoBlock});
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
        trace.add(TraceRecord{t, static_cast<NodeId>(t % 8),
                              static_cast<NodeId>((t + 3) % 8),
                              t % 4 == 0 ? PacketClass::Data
                                         : PacketClass::Control,
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
        trace.add(TraceRecord{t, 0, 5, PacketClass::Data, blk});

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
