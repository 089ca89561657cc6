/**
 * @file
 * Section 5.5: per-NI encoder area at 45 nm for every scheme, from
 * the analytical CAM/TCAM/SRAM area model. Paper reference points:
 * DI-VAXX 0.0037 mm^2, FP-VAXX 0.0029 mm^2.
 */
#include <cstdio>

#include "bench/bench_common.h"
#include "power/area_model.h"

using namespace approxnoc;
using namespace approxnoc::bench;

int
main(int argc, char **argv)
{
    ExperimentSpec spec =
        ExperimentSpec::Builder()
            .fromCli(argc, argv, "Sec 5.5: encoder area overhead", {})
            .build();
    print_banner("Section 5.5 (encoder area overhead, 45 nm)", spec);

    DictionaryConfig dict;
    dict.n_nodes = 32;
    Table t({"scheme", "area_mm2", "paper_mm2"});
    for (Scheme s : kAllSchemes) {
        double a = encoder_area_mm2(s, dict, 32);
        std::string paper = s == Scheme::DiVaxx   ? "0.0037"
                            : s == Scheme::FpVaxx ? "0.0029"
                                                  : "-";
        t.row().cell(to_string(s)).cell(a, 5).cell(paper);
    }
    emit(t, spec, "area_overhead");
    return 0;
}
