/**
 * @file
 * DI-VAXX (paper Sec. 4.2.1, Fig. 8): dictionary compression whose
 * encoder PMT is a TCAM of *approximate* patterns. The APCL computes
 * each reference pattern's don't-care mask once, when the update
 * notification is recorded — keeping the AVCL off the packetization
 * critical path — and the original patterns are stored alongside so
 * non-approximable data can still be matched exactly.
 */
#ifndef APPROXNOC_APPROX_DI_VAXX_H
#define APPROXNOC_APPROX_DI_VAXX_H

#include <vector>

#include "approx/avcl.h"
#include "compression/dictionary.h"
#include "tcam/tcam.h"

namespace approxnoc {

/**
 * Where the approximation logic sits relative to the dictionary.
 * Insertion is the paper's design (APCL at update-record time, TCAM
 * lookup on the critical path); Lookup is the naive ablation (AVCL in
 * series before a dictionary lookup), functionally similar but two
 * cycles slower per block.
 */
enum class VaxxPlacement : std::uint8_t {
    Insertion, ///< paper: precomputed TCAM patterns
    Lookup,    ///< ablation: AVCL on the critical path
};

/** The DI-VAXX codec. */
class DiVaxxCodec : public DictionaryCodecBase
{
  public:
    DiVaxxCodec(const DictionaryConfig &cfg, const ErrorModel &model,
                VaxxPlacement placement = VaxxPlacement::Insertion);

    Scheme scheme() const override { return Scheme::DiVaxx; }

    Cycle
    compressionLatency() const override
    {
        // Lookup placement serializes the AVCL (2 extra cycles) before
        // the 3-cycle match+encode pipeline.
        return placement_ == VaxxPlacement::Insertion ? kCompressionLatency
                                                      : kCompressionLatency + 2;
    }

    std::uint64_t encoderSearches() const override;
    std::uint64_t encoderWrites() const override;

    /** Encoder TCAM occupancy at @p node (tests). */
    std::size_t encoderPatternCount(NodeId node) const;

    const Avcl &avcl() const { return avcl_; }
    VaxxPlacement placement() const { return placement_; }

    /** New threshold applies to patterns recorded from now on. */
    bool
    setErrorThreshold(double pct) override
    {
        avcl_.setErrorModel(ErrorModel(pct, avcl_.errorModel().mode()));
        return true;
    }

    CodecActivity
    activity() const override
    {
        CodecActivity a = CodecSystem::activity();
        a.tcam_searches = encoderSearches();
        a.tcam_writes = encoderWrites();
        a.cam_searches = decoderSearches();
        a.cam_writes = decoderWrites();
        a.avcl_ops = avcl_.activations();
        return a;
    }

  protected:
    /**
     * One TCAM probe per word, visiting matches in priority
     * order until one holds a usable mapping for @p dst.
     */
    void encodeWords(const DataBlock &block, NodeId src, NodeId dst,
                     EncodedBlock &out) override;
    void applyUpdateAtEncoder(NodeId enc, const Update &u) override;

  private:
    struct EncoderState {
        Tcam tcam;
        std::vector<DataType> types;
        /** Fig. 8's idx per (entry, destination). */
        IndexTable indices;
        /** Fig. 8's op, [slot][dst]: the exact pattern the index stands
         *  for; read only where @c indices maps (slot, dst). */
        std::vector<std::vector<Word>> originals;

        EncoderState(const DictionaryConfig &cfg);
    };

    std::vector<EncoderState> encoders_;
    /** Analysis logic shared by every encoder node. */
    Avcl avcl_;
    VaxxPlacement placement_;
};

} // namespace approxnoc

#endif // APPROXNOC_APPROX_DI_VAXX_H
