/**
 * @file
 * Figure 17: bodytrack precise vs approximate output. Runs the
 * tracker precisely and with a 10% data error budget, writes both
 * rendered outputs as PGM images, and reports the output vector
 * difference (the paper observes 2.4% at a 10% threshold).
 */
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench/bench_common.h"
#include "common/log.h"
#include "workloads/kernels.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

void
write_pgm(const std::string &path, const std::vector<std::uint8_t> &img,
          unsigned w, unsigned h)
{
    std::ofstream f(path, std::ios::binary);
    f << "P5\n" << w << " " << h << "\n255\n";
    f.write(reinterpret_cast<const char *>(img.data()),
            static_cast<std::streamsize>(img.size()));
}

WorkloadResult
run_bodytrack(BodytrackWorkload &wl, Scheme scheme, double threshold,
              double approx_ratio)
{
    CacheConfig ccfg;
    ccfg.approx_ratio = approx_ratio;
    CodecConfig cc;
    cc.n_nodes = ccfg.n_nodes;
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(scheme, cc);
    ApproxCacheSystem mem(ccfg, codec.get());
    return wl.run(mem);
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .fromCli(argc, argv,
                     "Figure 17: bodytrack precise vs approximate output",
                     {"threshold", "approx-ratio", "scale", "jobs",
                      "progress"})
            .build();
    const ExperimentConfig &cfg = spec.config();
    print_banner("Figure 17 (bodytrack visual comparison)", spec, 2,
                 "workload runs");

    double threshold = spec.thresholds().front();
    double ratio = spec.approxRatios().front();
    BodytrackWorkload wl(cfg.scale);

    // The two tracker runs are independent; run them in parallel.
    ExperimentRunner runner(cfg.jobs, make_progress(cfg, "workload runs"));
    std::vector<Outcome<WorkloadResult>> out =
        runner.map(2, [&](std::size_t i) {
            // Each job builds its own workload so the runs stay
            // isolated regardless of worker count.
            BodytrackWorkload local(cfg.scale);
            return i == 0
                       ? run_bodytrack(local, Scheme::Baseline, 0.0, ratio)
                       : run_bodytrack(local, Scheme::FpVaxx, threshold,
                                       ratio);
        });
    if (!out[0].ok || !out[1].ok)
        ANOC_FATAL("bodytrack run failed: ",
                   out[0].ok ? out[1].error : out[0].error);
    const WorkloadResult &precise = out[0].value;
    const WorkloadResult &approx = out[1].value;

    std::error_code ec;
    std::filesystem::create_directories(cfg.csv_dir, ec);
    auto img_p = wl.renderOutput(precise);
    auto img_a = wl.renderOutput(approx);
    write_pgm(cfg.csv_dir + "/fig17_precise.pgm", img_p, wl.imageWidth(),
              wl.imageHeight());
    write_pgm(cfg.csv_dir + "/fig17_approx.pgm", img_a, wl.imageWidth(),
              wl.imageHeight());

    double err = wl.outputError(precise, approx);
    double pix_diff = 0.0;
    for (std::size_t i = 0; i < img_p.size(); ++i)
        pix_diff += std::abs(int(img_p[i]) - int(img_a[i]));
    pix_diff /= 255.0 * static_cast<double>(img_p.size());

    Table t({"metric", "value"});
    t.row().cell(std::string("error threshold (%)")).cell(threshold, 0);
    t.row().cell(std::string("output vector difference (%)"))
        .cell(err * 100.0, 4);
    t.row().cell(std::string("rendered image difference (%)"))
        .cell(pix_diff * 100.0, 4);
    emit(t, spec, "fig17_bodytrack");
    std::printf("[images: %s/fig17_precise.pgm, %s/fig17_approx.pgm]\n",
                cfg.csv_dir.c_str(), cfg.csv_dir.c_str());
    return 0;
}
