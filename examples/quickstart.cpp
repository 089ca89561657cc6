/**
 * @file
 * Quickstart: encode one cache block with every scheme and walk
 * through the paper's Fig. 3 flow — approximation, compression to the
 * network representation, packetization, and decode at the far end.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cstdio>

#include "core/codec_factory.h"
#include "noc/packet.h"

using namespace approxnoc;

int
main()
{
    // A 64 B cache block of float32 data with strong value locality:
    // a few exact repeats plus near values, annotated approximable.
    DataBlock block = DataBlock::fromFloats(
        {3.14159f, 3.14159f, 3.14160f, 3.14100f,
         2.71828f, 2.71828f, 2.71801f, 0.0f,
         0.0f, 0.0f, 1.5f, 1.5f,
         1.49995f, 100.25f, 100.25f, 100.2502f},
        /*approximable=*/true);

    std::printf("precise block (%zu words, %zu bits):\n  %s\n\n",
                block.size(), block.sizeBits(), block.toString().c_str());

    CodecConfig cfg;
    cfg.n_nodes = 2;              // one sender, one receiver
    cfg.error_threshold_pct = 10; // Table 1 default

    for (Scheme scheme : kAllSchemes) {
        auto codec = CodecFactory::create(scheme, cfg);

        // Dictionary schemes learn online: warm them up by sending the
        // block a few times (decoders promote patterns and notify the
        // encoder after the update latency).
        Cycle t = 0;
        for (int i = 0; i < 4; ++i) {
            EncodedBlock warm = codec->encode(block, 0, 1, t);
            codec->decode(warm, 0, 1, t);
            t += 50;
        }

        EncodedBlock enc = codec->encode(block, 0, 1, t);
        DataBlock out = codec->decode(enc, 0, 1, t);
        unsigned flits = 1 + payload_flits(enc.bits(), 64);

        std::printf("%-8s : NR %4zu bits -> %u flits  "
                    "(exact %zu, approx %zu, raw %zu words)  "
                    "rel.err %.4f%%\n",
                    to_string(scheme).c_str(), enc.bits(), flits,
                    enc.exactCompressedWords(), enc.approximatedWords(),
                    enc.uncompressedWords(),
                    100.0 * block_relative_error(block, out));
    }

    std::printf("\nA baseline data packet needs %u flits; every scheme "
                "above shrinks it while\nkeeping each word within the "
                "10%% error threshold (exactly 0 for the\nnon-VAXX "
                "schemes).\n",
                1 + payload_flits(block.sizeBits(), 64));
    return 0;
}
