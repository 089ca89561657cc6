/**
 * @file
 * Ablations for the design choices DESIGN.md calls out:
 *   1. Error-range mode: the paper's shift approximation vs an exact
 *      multiplier (compression won vs quality cost).
 *   2. FP-VAXX priority: highest-priority-first (paper) vs
 *      prefer-exact (Sec. 5.3.1 discussion).
 *   3. DI-VAXX placement: insertion-time APCL + TCAM (paper) vs AVCL
 *      on the lookup critical path (latency cost at equal function).
 */
#include <cstdio>

#include "approx/window_vaxx.h"
#include "bench/bench_common.h"
#include "compression/adaptive.h"
#include "traffic/data_provider.h"

using namespace approxnoc;
using namespace approxnoc::bench;

namespace {

struct CodecScore {
    double compression_ratio;
    double mean_error;
    Cycle latency;
};

CodecScore
score(CodecSystem &codec, DataType type, std::uint64_t seed)
{
    SyntheticDataProvider provider(type, 16, 0.85, 4.0, seed, 0.5, 12);
    QualityTracker q;
    Cycle t = 0;
    for (int i = 0; i < 3000; ++i) {
        DataBlock b = provider.next(0);
        EncodedBlock enc = codec.encode(b, 0, 1, t);
        DataBlock out = codec.decode(enc, 0, 1, t);
        q.record(b, enc, out);
        t += 5;
    }
    return {q.compressionRatio(), q.meanRelativeError(),
            codec.compressionLatency()};
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .fromCli(argc, argv, "Design-choice ablations", {"threshold"})
            .build();
    const double threshold = spec.thresholds().front();
    print_banner("Ablations (error mode, FPC priority, VAXX placement)",
                 spec);

    Table t({"ablation", "variant", "type", "compr_ratio", "mean_err_pct",
             "compr_latency"});

    for (DataType type : {DataType::Int32, DataType::Float32}) {
        std::string ts = to_string(type);

        // 1. Error-range computation.
        for (ErrorRangeMode mode :
             {ErrorRangeMode::Shift, ErrorRangeMode::Exact}) {
            FpVaxxCodec codec{
                ErrorModel(threshold, mode)};
            CodecScore s = score(codec, type, 11);
            t.row()
                .cell(std::string("error-range"))
                .cell(std::string(mode == ErrorRangeMode::Shift
                                      ? "shift (paper)"
                                      : "exact multiply"))
                .cell(ts)
                .cell(s.compression_ratio, 3)
                .cell(s.mean_error * 100.0, 3)
                .cell(static_cast<long>(s.latency));
        }

        // 2. FP-VAXX match priority.
        for (FpcPriorityMode mode :
             {FpcPriorityMode::PreferApprox, FpcPriorityMode::PreferExact}) {
            FpVaxxCodec codec{ErrorModel(threshold), mode};
            CodecScore s = score(codec, type, 13);
            t.row()
                .cell(std::string("fpc-priority"))
                .cell(std::string(mode == FpcPriorityMode::PreferApprox
                                      ? "prefer-approx (paper)"
                                      : "prefer-exact"))
                .cell(ts)
                .cell(s.compression_ratio, 3)
                .cell(s.mean_error * 100.0, 3)
                .cell(static_cast<long>(s.latency));
        }

        // 3. Window-based error budget (the paper's future work):
        //    per-word threshold vs a shared per-block budget, on
        //    skewed frame-like blocks where most words match exactly
        //    and a few need a wide mask (the video/image scenario the
        //    paper motivates the window with).
        {
            FpVaxxCodec perword{ErrorModel(threshold)};
            WindowVaxxCodec window{ErrorModel(threshold),
                                   /*per_word_cap=*/8.0};
            auto skewed_score = [&](CodecSystem &codec) {
                Rng rng(29);
                QualityTracker q;
                for (int i = 0; i < 3000; ++i) {
                    std::vector<Word> ws(16);
                    for (auto &w : ws) {
                        if (rng.chance(0.25)) {
                            // Hard word: low bits block HalfPadded.
                            w = 0x00010000u |
                                static_cast<Word>(rng.next(0x4000));
                        } else {
                            w = static_cast<Word>(rng.range(-64, 64));
                        }
                    }
                    DataBlock b(ws, DataType::Int32, true);
                    EncodedBlock enc = codec.encode(b, 0, 1, 0);
                    q.record(b, enc, codec.decode(enc, 0, 1, 0));
                }
                return CodecScore{q.compressionRatio(),
                                  q.meanRelativeError(),
                                  codec.compressionLatency()};
            };
            CodecScore sp = skewed_score(perword);
            CodecScore sw = skewed_score(window);
            t.row()
                .cell(std::string("window-budget"))
                .cell(std::string("per-word (paper)"))
                .cell(ts)
                .cell(sp.compression_ratio, 3)
                .cell(sp.mean_error * 100.0, 3)
                .cell(static_cast<long>(sp.latency));
            t.row()
                .cell(std::string("window-budget"))
                .cell(std::string("per-block window (future work)"))
                .cell(ts)
                .cell(sw.compression_ratio, 3)
                .cell(sw.mean_error * 100.0, 3)
                .cell(static_cast<long>(sw.latency));
        }

        // 4. Adaptive on/off wrapper (after Jin et al. [17]) on a
        //    phase-alternating stream: long incompressible bursts
        //    punctuated by compressible phases.
        {
            AdaptiveConfig acfg;
            acfg.n_nodes = 4;
            AdaptiveCodec adaptive(
                std::make_unique<FpVaxxCodec>(
                    ErrorModel(threshold)),
                acfg);
            FpVaxxCodec plain{ErrorModel(threshold)};

            auto phased_score = [&](CodecSystem &codec) {
                Rng rng(31);
                QualityTracker q;
                std::uint64_t searches0 = codec.activity().cam_searches;
                for (int i = 0; i < 4000; ++i) {
                    bool compressible = (i / 500) % 2 == 1;
                    std::vector<Word> ws(16);
                    for (auto &w : ws)
                        w = compressible
                                ? static_cast<Word>(rng.range(-100, 100))
                                : (static_cast<Word>(rng.bits()) |
                                   0x01000000u);
                    DataBlock b(ws, DataType::Int32, false);
                    EncodedBlock enc = codec.encode(b, 0, 1, 0);
                    q.record(b, enc, codec.decode(enc, 0, 1, 0));
                }
                std::uint64_t searches =
                    codec.activity().cam_searches - searches0;
                return std::pair<CodecScore, std::uint64_t>(
                    {q.compressionRatio(), q.meanRelativeError(),
                     codec.compressionLatency()},
                    searches);
            };
            auto [s1, n1] = phased_score(plain);
            auto [s2, n2] = phased_score(adaptive);
            char label[96];
            std::snprintf(label, sizeof(label),
                          "adaptive wrapper (%.0f%% fewer searches)",
                          100.0 * (1.0 - double(n2) / double(n1)));
            t.row()
                .cell(std::string("adaptive-onoff"))
                .cell(std::string("always-on (paper)"))
                .cell(ts)
                .cell(s1.compression_ratio, 3)
                .cell(s1.mean_error * 100.0, 3)
                .cell(static_cast<long>(s1.latency));
            t.row()
                .cell(std::string("adaptive-onoff"))
                .cell(std::string(label))
                .cell(ts)
                .cell(s2.compression_ratio, 3)
                .cell(s2.mean_error * 100.0, 3)
                .cell(static_cast<long>(s2.latency));
        }

        // 5. DI-VAXX approximation placement.
        for (VaxxPlacement placement :
             {VaxxPlacement::Insertion, VaxxPlacement::Lookup}) {
            DictionaryConfig dict;
            dict.n_nodes = 4;
            DiVaxxCodec codec(dict, ErrorModel(threshold),
                              placement);
            CodecScore s = score(codec, type, 17);
            t.row()
                .cell(std::string("vaxx-placement"))
                .cell(std::string(placement == VaxxPlacement::Insertion
                                      ? "insertion (paper)"
                                      : "lookup path"))
                .cell(ts)
                .cell(s.compression_ratio, 3)
                .cell(s.mean_error * 100.0, 3)
                .cell(static_cast<long>(s.latency));
        }
    }
    emit(t, spec, "ablation_codec");
    return 0;
}
