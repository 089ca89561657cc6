/**
 * @file
 * The APPROX-NoC framework entry point: a single configuration object
 * covering the approximation policy (error threshold) and the
 * underlying compression scheme, plus the factory that builds the
 * matching CodecSystem. VAXX is plug-and-play: pick any Scheme and the
 * factory assembles the paper's pipeline for it; bench/ablation_codec
 * builds the design alternatives directly.
 */
#ifndef APPROXNOC_CORE_CODEC_FACTORY_H
#define APPROXNOC_CORE_CODEC_FACTORY_H

#include <memory>

#include "approx/di_vaxx.h"
#include "approx/error_model.h"
#include "approx/fp_vaxx.h"
#include "compression/codec.h"
#include "compression/dictionary.h"
#include "compression/fpc.h"

namespace approxnoc {

/** Everything needed to instantiate any of the five paper schemes. */
struct CodecConfig {
    /** Number of network endpoints (dictionary schemes). */
    std::size_t n_nodes = 32;
    /** Error threshold e%% (paper default 10). */
    double error_threshold_pct = 10.0;
    /** Dictionary parameters (n_nodes is overwritten from above). */
    DictionaryConfig dict;
};

/**
 * The single registry entry point for codec construction. Every
 * consumer — harness, tools, examples, tests — builds codecs through
 * CodecFactory::create so scheme wiring lives in exactly one place.
 */
class CodecFactory
{
  public:
    /** Build the codec system for @p scheme under @p cfg. */
    static std::unique_ptr<CodecSystem> create(Scheme scheme,
                                               const CodecConfig &cfg = {});

    /** create(scheme_from_string(name), cfg). */
    static std::unique_ptr<CodecSystem> create(const std::string &name,
                                               const CodecConfig &cfg = {});
};

/** Parse a scheme name ("Baseline", "DI-COMP", "di-vaxx"...). */
Scheme scheme_from_string(const std::string &name);

} // namespace approxnoc

#endif // APPROXNOC_CORE_CODEC_FACTORY_H
