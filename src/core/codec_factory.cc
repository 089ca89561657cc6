#include "core/codec_factory.h"

#include <algorithm>
#include <cctype>

#include "common/log.h"

namespace approxnoc {

std::unique_ptr<CodecSystem>
CodecFactory::create(Scheme scheme, const CodecConfig &cfg)
{
    DictionaryConfig dict = cfg.dict;
    dict.n_nodes = cfg.n_nodes;
    const ErrorModel model(cfg.error_threshold_pct);

    switch (scheme) {
      case Scheme::Baseline:
        return std::make_unique<BaselineCodec>();
      case Scheme::DiComp:
        return std::make_unique<DiCompCodec>(dict);
      case Scheme::DiVaxx:
        return std::make_unique<DiVaxxCodec>(dict, model);
      case Scheme::FpComp:
        return std::make_unique<FpcCodec>();
      case Scheme::FpVaxx:
        return std::make_unique<FpVaxxCodec>(model);
    }
    ANOC_PANIC("unknown scheme in CodecFactory::create");
}

std::unique_ptr<CodecSystem>
CodecFactory::create(const std::string &name, const CodecConfig &cfg)
{
    return create(scheme_from_string(name), cfg);
}

Scheme
scheme_from_string(const std::string &name)
{
    std::string s;
    for (char c : name)
        if (c != '-' && c != '_')
            s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "baseline")
        return Scheme::Baseline;
    if (s == "dicomp")
        return Scheme::DiComp;
    if (s == "divaxx")
        return Scheme::DiVaxx;
    if (s == "fpcomp")
        return Scheme::FpComp;
    if (s == "fpvaxx")
        return Scheme::FpVaxx;
    ANOC_FATAL("unknown scheme name '", name,
               "' (expected Baseline, DI-COMP, DI-VAXX, FP-COMP or FP-VAXX)");
}

} // namespace approxnoc
