/** DI-COMP dictionary codec tests: learning, consistency, eviction. */
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compression/adaptive.h"
#include "compression/dictionary.h"
#include "core/codec_factory.h"

using namespace approxnoc;

namespace {

DictionaryConfig
small_config()
{
    DictionaryConfig cfg;
    cfg.n_nodes = 4;
    cfg.pmt_entries = 8;
    cfg.tracker_entries = 16;
    cfg.promote_threshold = 2;
    cfg.notify_delay = 10;
    return cfg;
}

DataBlock
block_of(std::initializer_list<Word> ws)
{
    return DataBlock(ws, DataType::Int32, false);
}

/** Round-trip a block src->dst at a given time. */
DataBlock
roundtrip(DiCompCodec &c, const DataBlock &b, NodeId src, NodeId dst, Cycle t)
{
    EncodedBlock enc = c.encode(b, src, dst, t);
    return c.decode(enc, src, dst, t);
}

} // namespace

TEST(DiComp, IndexBits)
{
    EXPECT_EQ(small_config().indexBits(), 3u);
}

TEST(DiComp, FirstTransmissionsAreRaw)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAAAA, 0xBBBB});
    EncodedBlock enc = c.encode(b, 0, 1, 0);
    EXPECT_EQ(enc.uncompressedWords(), 2u);
    // Nothing compressed -> raw-block fallback: exactly the block size
    // (the compressed/raw flag rides in the head flit).
    EXPECT_EQ(enc.bits(), b.sizeBits());
}

TEST(DiComp, NeverExpandsABlock)
{
    Rng rng(47);
    DiCompCodec c(small_config());
    for (int i = 0; i < 500; ++i) {
        std::vector<Word> ws(16);
        for (auto &w : ws)
            w = static_cast<Word>(rng.bits());
        DataBlock b(ws, DataType::Int32, false);
        EncodedBlock enc = c.encode(b, 0, 1, static_cast<Cycle>(i));
        EXPECT_LE(enc.bits(), b.sizeBits());
        c.decode(enc, 0, 1, static_cast<Cycle>(i));
    }
}

TEST(DiComp, LearnsRecurringPatternAfterThresholdAndDelay)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAAAA});

    // Two sightings at the decoder promote the pattern; the update
    // notification reaches the encoder after notify_delay.
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);

    EncodedBlock enc = c.encode(b, 0, 1, 5); // update not yet applied
    EXPECT_EQ(enc.uncompressedWords(), 1u);

    enc = c.encode(b, 0, 1, 20); // past notify_delay
    EXPECT_EQ(enc.uncompressedWords(), 0u);
    EXPECT_EQ(enc.bits(), 1u + 3u);

    DataBlock out = c.decode(enc, 0, 1, 20);
    EXPECT_TRUE(out.sameBits(b));
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, DictionariesArePerDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x1234});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);

    // Learned for destination 1 only.
    EncodedBlock enc1 = c.encode(b, 0, 1, 100);
    EncodedBlock enc2 = c.encode(b, 0, 2, 100);
    EXPECT_EQ(enc1.uncompressedWords(), 0u);
    EXPECT_EQ(enc2.uncompressedWords(), 1u);
}

TEST(DiComp, DecoderLearnsFromAnySender)
{
    // Decoder 2 sees the same word from senders 0 and 1; once the
    // pattern is in its PMT, each sender gets its own update.
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x7777});
    roundtrip(c, b, 0, 2, 0);
    roundtrip(c, b, 0, 2, 1);   // promoted, update to 0
    // Sender 1's sighting must wait out the notification rate limit.
    roundtrip(c, b, 1, 2, 100); // hit in PMT, update to 1

    EXPECT_EQ(c.encode(b, 0, 2, 200).uncompressedWords(), 0u);
    EXPECT_EQ(c.encode(b, 1, 2, 200).uncompressedWords(), 0u);
}

TEST(DiComp, RoundTripAlwaysExact)
{
    Rng rng(41);
    DiCompCodec c(small_config());
    // A value-local stream: many repeats.
    std::vector<Word> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(static_cast<Word>(rng.bits()));
    Cycle t = 0;
    for (int i = 0; i < 2000; ++i) {
        std::vector<Word> ws;
        for (int j = 0; j < 8; ++j)
            ws.push_back(rng.chance(0.7)
                             ? pool[rng.next(pool.size())]
                             : static_cast<Word>(rng.bits()));
        DataBlock b(ws, DataType::Int32, false);
        NodeId src = static_cast<NodeId>(rng.next(4));
        NodeId dst = static_cast<NodeId>(rng.next(4));
        if (src == dst)
            continue;
        DataBlock out = roundtrip(c, b, src, dst, t);
        ASSERT_TRUE(out.sameBits(b)) << "DI-COMP must be lossless";
        t += static_cast<Cycle>(rng.next(5));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, CompressionImprovesOnHotStream)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA});
    Cycle t = 0;
    std::size_t first_bits = 0, last_bits = 0;
    for (int i = 0; i < 50; ++i) {
        EncodedBlock enc = c.encode(b, 0, 1, t);
        c.decode(enc, 0, 1, t);
        if (i == 0)
            first_bits = enc.bits();
        last_bits = enc.bits();
        t += 30;
    }
    EXPECT_LT(last_bits, first_bits / 4);
}

TEST(DiComp, EvictionInvalidatesAndStaysConsistent)
{
    DictionaryConfig cfg = small_config();
    cfg.pmt_entries = 2; // tiny PMT forces evictions
    cfg.tracker_entries = 8;
    DiCompCodec c(cfg);
    Rng rng(43);
    Cycle t = 0;
    // Rotate through more hot patterns than PMT entries.
    std::vector<Word> pool = {0x11, 0x22, 0x33, 0x44, 0x55};
    for (int i = 0; i < 3000; ++i) {
        Word w = pool[rng.next(pool.size())];
        DataBlock b({w, w}, DataType::Int32, false);
        DataBlock out = roundtrip(c, b, 0, 1, t);
        ASSERT_TRUE(out.sameBits(b));
        t += static_cast<Cycle>(1 + rng.next(4));
    }
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

TEST(DiComp, NotificationsAreDrainablePerDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x99});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    EXPECT_TRUE(c.drainNotifications(0).empty())
        << "node 0 decoded nothing";
    auto notes = c.drainNotifications(1);
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].from, 1u); // decoder
    EXPECT_EQ(notes[0].to, 0u);   // encoder
    EXPECT_EQ(notes[0].seq, 0u);  // the first notification node 1 emitted
    EXPECT_TRUE(c.drainNotifications(1).empty());

    // seq keeps counting across drains of the same destination.
    roundtrip(c, block_of({0x7777}), 0, 1, 100);
    roundtrip(c, block_of({0x7777}), 0, 1, 200);
    auto more = c.drainNotifications(1);
    ASSERT_EQ(more.size(), 1u);
    EXPECT_EQ(more[0].seq, 1u);
}

TEST(DiComp, PerDestinationDrainsCoverEveryDestination)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0x99});
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    roundtrip(c, b, 1, 2, 0);
    roundtrip(c, b, 1, 2, 1);
    // Each destination drains exactly its own decoder's notifications.
    auto n1 = c.drainNotifications(1);
    ASSERT_EQ(n1.size(), 1u);
    EXPECT_EQ(n1[0].from, 1u);
    EXPECT_EQ(n1[0].to, 0u);
    auto n2 = c.drainNotifications(2);
    ASSERT_EQ(n2.size(), 1u);
    EXPECT_EQ(n2[0].from, 2u);
    EXPECT_EQ(n2[0].to, 1u);
    // Nodes that decoded nothing, and re-drains, are empty.
    EXPECT_TRUE(c.drainNotifications(0).empty());
    EXPECT_TRUE(c.drainNotifications(1).empty());
    EXPECT_TRUE(c.drainNotifications(2).empty());
}

TEST(DiComp, EncoderTablesPerNodeAreIndependent)
{
    DiCompCodec c(small_config());
    DataBlock b = block_of({0xCAFE});
    // Every encoder starts with the preloaded zero pattern only.
    EXPECT_EQ(c.encoderPatternCount(0), 1u);
    roundtrip(c, b, 0, 1, 0);
    roundtrip(c, b, 0, 1, 1);
    EXPECT_EQ(c.encoderPatternCount(0), 1u); // update pending
    c.encode(b, 0, 1, 50);                   // applies pending updates
    EXPECT_EQ(c.encoderPatternCount(0), 2u);
    EXPECT_EQ(c.encoderPatternCount(1), 1u);
    EXPECT_EQ(c.encoderPatternCount(2), 1u);
}

TEST(DiComp, ZeroWordsCompressWithoutTraining)
{
    DiCompCodec c(small_config());
    DataBlock b({0, 0, 0, 0}, DataType::Int32, false);
    EncodedBlock enc = c.encode(b, 0, 1, 0);
    EXPECT_EQ(enc.uncompressedWords(), 0u)
        << "the zero pattern is hardwired at reset";
    DataBlock out = c.decode(enc, 0, 1, 0);
    EXPECT_TRUE(out.sameBits(b));
    EXPECT_EQ(c.consistencyMismatches(), 0u);
}

/** Two identically driven twins drain identical per-destination
 * notification streams — the stream is a pure function of the decode
 * history, not of which codec instance carried it — for every scheme
 * plus the adaptive wrapper. */
TEST(DrainNotifications, PerDestinationDrainsMatchAcrossTwins)
{
    constexpr std::size_t kFlows = 6;
    constexpr std::size_t kNodes = 2 * kFlows; // srcs 0..5, dsts 6..11
    auto flow_src = [](std::size_t b) {
        return static_cast<NodeId>(b % kFlows);
    };
    auto flow_dst = [](std::size_t b) {
        return static_cast<NodeId>(kFlows + b % kFlows);
    };

    // Value-local multi-flow workload: hot values, near misses, noise.
    Rng rng(0xBEEF);
    std::vector<Word> hot(48);
    for (auto &h : hot)
        h = (static_cast<Word>(rng.bits()) | 0x00400000u) & 0x7FFFFFFFu;
    std::vector<DataBlock> blocks;
    for (int b = 0; b < 240; ++b) {
        std::vector<Word> ws(16);
        for (auto &w : ws) {
            double r = rng.uniform();
            if (r < 0.15)
                w = 0;
            else if (r < 0.6)
                w = hot[rng.next(hot.size())];
            else if (r < 0.8)
                w = hot[rng.next(hot.size())] ^
                    static_cast<Word>(rng.next(128));
            else
                w = static_cast<Word>(rng.bits());
        }
        blocks.emplace_back(std::move(ws), DataType::Int32, true);
    }

    CodecConfig cfg;
    cfg.n_nodes = kNodes;
    cfg.error_threshold_pct = 10.0;
    cfg.dict.pmt_entries = 16;
    cfg.dict.tracker_entries = 32;
    auto make = [&](const std::string &name) -> std::unique_ptr<CodecSystem> {
        if (name != "adaptive")
            return CodecFactory::create(scheme_from_string(name), cfg);
        AdaptiveConfig acfg;
        acfg.n_nodes = kNodes;
        acfg.window_blocks = 8;
        acfg.off_blocks = 16;
        acfg.probe_blocks = 4;
        return std::make_unique<AdaptiveCodec>(
            CodecFactory::create(Scheme::DiVaxx, cfg), acfg);
    };

    for (const char *name :
         {"FP-COMP", "FP-VAXX", "DI-COMP", "DI-VAXX", "adaptive"}) {
        SCOPED_TRACE(name);
        auto a = make(name);
        auto b = make(name);
        // Train WITHOUT draining so both twins hold queued
        // notifications, then compare the per-destination drains.
        Cycle now = 0;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            auto ea = a->encodeBlock(blocks[i], flow_src(i), flow_dst(i), now);
            a->decodeBlock(ea, flow_src(i), flow_dst(i), now);
            auto eb = b->encodeBlock(blocks[i], flow_src(i), flow_dst(i), now);
            b->decodeBlock(eb, flow_src(i), flow_dst(i), now);
            now += 53;
        }
        for (NodeId d = 0; d < static_cast<NodeId>(kNodes); ++d) {
            auto na = a->drainNotifications(d);
            auto nb = b->drainNotifications(d);
            ASSERT_EQ(na.size(), nb.size()) << "dst " << d;
            for (std::size_t i = 0; i < na.size(); ++i) {
                EXPECT_EQ(na[i].from, nb[i].from) << "dst " << d << " " << i;
                EXPECT_EQ(na[i].to, nb[i].to) << "dst " << d << " " << i;
                EXPECT_EQ(na[i].seq, nb[i].seq) << "dst " << d << " " << i;
            }
            // Draining is destructive: a second drain is empty.
            EXPECT_TRUE(a->drainNotifications(d).empty());
        }
    }
}
