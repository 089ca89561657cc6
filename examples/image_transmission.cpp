/**
 * @file
 * Image transmission over the NoC: a procedural grayscale image is
 * sent block-by-block from a producer tile to a consumer tile under
 * FP-VAXX, the motivating image/video use case of the paper. Reports
 * flits saved, PSNR of the received image, and writes before/after
 * PGMs to results/.
 *
 * Usage: ./build/examples/image_transmission [--threshold=10]
 */
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/cli.h"
#include "core/codec_factory.h"
#include "noc/network.h"
#include "sim/simulator.h"

using namespace approxnoc;

namespace {

constexpr unsigned kW = 128, kH = 128;

std::vector<float>
make_image()
{
    // Continuous luminance values: dense mantissas, so exact matching
    // alone gets little traction and VAXX has real work to do.
    std::vector<float> img(kW * kH);
    for (unsigned y = 0; y < kH; ++y) {
        for (unsigned x = 0; x < kW; ++x) {
            double v = 120 + 60 * std::sin(x * 0.10) * std::cos(y * 0.07) +
                       40 * std::exp(-(std::pow(x - 80.0, 2) +
                                       std::pow(y - 40.0, 2)) /
                                     600.0);
            img[y * kW + x] = static_cast<float>(std::clamp(v, 0.0, 255.0));
        }
    }
    return img;
}

std::vector<std::uint8_t>
quantize(const std::vector<float> &img)
{
    std::vector<std::uint8_t> out(img.size());
    for (std::size_t i = 0; i < img.size(); ++i)
        out[i] = static_cast<std::uint8_t>(std::clamp(img[i], 0.0f, 255.0f));
    return out;
}

void
write_pgm(const std::string &path, const std::vector<std::uint8_t> &img)
{
    std::ofstream f(path, std::ios::binary);
    f << "P5\n" << kW << " " << kH << "\n255\n";
    f.write(reinterpret_cast<const char *>(img.data()),
            static_cast<std::streamsize>(img.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    double threshold = args.getDouble("threshold", 10.0, kPercentRange);

    NocConfig ncfg;
    CodecConfig cc;
    cc.n_nodes = ncfg.nodes();
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(Scheme::FpVaxx, cc);
    Network net(ncfg, codec.get());
    Simulator sim;
    net.attach(sim);

    auto img = make_image();
    std::vector<float> received(img.size(), 0.0f);
    std::size_t delivered_blocks = 0;

    // Reassemble arriving blocks in delivery order (16 pixels/word
    // block = 16 words x 1 pixel per word keeps the math simple).
    // Pixels travel as float32 luminance (a typical image-pipeline
    // intermediate), which is where mantissa approximation pays off.
    net.setDeliveryCallback([&](const PacketPtr &p, Cycle) {
        if (!p->carries_block)
            return;
        std::size_t base = p->id == 0 ? 0 : (p->id - 1) * 16;
        for (std::size_t i = 0;
             i < p->delivered.size() && base + i < received.size(); ++i) {
            received[base + i] =
                std::clamp(p->delivered.floatAt(i), 0.0f, 255.0f);
        }
        ++delivered_blocks;
    });

    const NodeId producer = 0, consumer = 30; // opposite corners
    for (std::size_t base = 0; base < img.size(); base += 16) {
        std::vector<float> words;
        for (std::size_t i = 0; i < 16; ++i)
            words.push_back(img[base + i]);
        auto pkt = net.makeDataPacket(producer, consumer,
                                      DataBlock::fromFloats(words, true));
        net.inject(pkt, sim.now());
        sim.run(2); // stream faster than the link drains: backlogged
    }
    bool ok = sim.runUntil([&] { return net.drained(); }, 1000000);
    Cycle makespan = sim.now();

    double mse = 0.0;
    for (std::size_t i = 0; i < img.size(); ++i) {
        double d = double(img[i]) - double(received[i]);
        mse += d * d;
    }
    mse /= static_cast<double>(img.size());
    double psnr = mse > 0 ? 10.0 * std::log10(255.0 * 255.0 / mse) : 1e9;

    std::uint64_t flits = net.dataFlitsInjected();
    std::uint64_t baseline_flits = (img.size() / 16) * 9;

    std::printf("image transmission over 4x4 cmesh, FP-VAXX @ %.0f%%\n",
                threshold);
    std::printf("  blocks delivered : %zu (%s)\n", delivered_blocks,
                ok ? "drained" : "TIMEOUT");
    std::printf("  data flits       : %llu vs %llu baseline (%.1f%% saved)\n",
                static_cast<unsigned long long>(flits),
                static_cast<unsigned long long>(baseline_flits),
                100.0 * (1.0 - double(flits) / double(baseline_flits)));
    std::printf("  makespan         : %llu cycles (baseline needs >= %llu "
                "just to serialize)\n",
                static_cast<unsigned long long>(makespan),
                static_cast<unsigned long long>(baseline_flits));
    if (mse > 0)
        std::printf("  PSNR             : %.2f dB\n", psnr);
    else
        std::printf("  PSNR             : inf (lossless on this image)\n");

    std::filesystem::create_directories("results");
    write_pgm("results/image_sent.pgm", quantize(img));
    write_pgm("results/image_received.pgm", quantize(received));
    std::printf("  images           : results/image_sent.pgm, "
                "results/image_received.pgm\n");
    return ok ? 0 : 1;
}
