/**
 * @file
 * Big-data graph analytics with approximate communication: runs the
 * SSCA2 betweenness-centrality kernel through the multicore cache
 * model with DI-VAXX on the response path and compares the identified
 * key entities against the precise run — the paper's headline big-data
 * use case.
 *
 * Usage: ./build/examples/graph_analytics [--threshold=10] [--scale=1]
 */
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/cli.h"
#include "core/codec_factory.h"
#include "workloads/kernels.h"

using namespace approxnoc;

namespace {

WorkloadResult
run(Scheme scheme, double threshold, unsigned scale)
{
    CacheConfig ccfg;
    CodecConfig cc;
    cc.n_nodes = ccfg.n_nodes;
    cc.error_threshold_pct = threshold;
    auto codec = CodecFactory::create(scheme, cc);
    ApproxCacheSystem mem(ccfg, codec.get());
    Ssca2Workload wl(scale);
    return wl.run(mem);
}

std::vector<std::size_t>
top_k(const std::vector<double> &scores, std::size_t k)
{
    std::vector<std::size_t> idx(scores.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                      [&](std::size_t a, std::size_t b) {
                          return scores[a] > scores[b];
                      });
    idx.resize(k);
    return idx;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    args.expect({"threshold", "scale"});
    double threshold = args.getDouble("threshold", 10.0, kPercentRange);
    auto scale = args.getCount<unsigned>("scale", 1, 1, kMaxScale);

    std::printf("SSCA2 betweenness centrality (R-MAT small world), "
                "16-core cache model\n\n");

    WorkloadResult precise = run(Scheme::Baseline, 0.0, scale);
    WorkloadResult approx = run(Scheme::FpVaxx, threshold, scale);

    Ssca2Workload metric(scale);
    double err = metric.outputError(precise, approx);

    const std::size_t k = 10;
    auto tp = top_k(precise.output, k);
    auto ta = top_k(approx.output, k);
    std::size_t overlap = 0;
    for (std::size_t v : ta)
        overlap += std::count(tp.begin(), tp.end(), v) ? 1 : 0;

    std::printf("top-%zu key entities (precise vs FP-VAXX @ %.0f%%):\n",
                k, threshold);
    std::printf("  %-6s %-22s %-22s\n", "rank", "precise (node: BC)",
                "approximate (node: BC)");
    for (std::size_t i = 0; i < k; ++i) {
        std::printf("  %-6zu %4zu: %-15.1f %4zu: %-15.1f\n", i + 1, tp[i],
                    precise.output[tp[i]], ta[i], approx.output[ta[i]]);
    }
    std::printf("\n  top-%zu overlap          : %zu/%zu\n", k, overlap, k);
    std::printf("  pair-wise BC error      : %.3f%%\n", err * 100.0);
    double speedup = 100.0 * (1.0 - double(approx.exec_cycles) /
                                        double(precise.exec_cycles));
    std::printf("  exec cycles             : %llu -> %llu (%+.1f%%)\n",
                static_cast<unsigned long long>(precise.exec_cycles),
                static_cast<unsigned long long>(approx.exec_cycles),
                speedup);
    return overlap >= k / 2 ? 0 : 1;
}
