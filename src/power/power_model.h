/**
 * @file
 * Event-energy power model (paper Sec. 5.5). Per-event energies are
 * analytical 45 nm estimates in the spirit of Orion/DSENT for the
 * router datapath and Agrawal & Sherwood [1] for the CAM/TCAM
 * structures; absolute numbers are indicative, but the *relative*
 * dynamic power across schemes — the paper's Fig. 15 — is driven by
 * the activity counts the simulator measures.
 */
#ifndef APPROXNOC_POWER_POWER_MODEL_H
#define APPROXNOC_POWER_POWER_MODEL_H

#include "compression/codec.h"
#include "noc/network.h"

namespace approxnoc {

/** Per-event energies in picojoules (45 nm, 64-bit flits). */
struct PowerParams {
    double e_buffer_write_pj = 1.2; ///< flit into an input VC buffer
    double e_switch_pj = 1.8;       ///< crossbar traversal per flit
    double e_link_pj = 2.4;         ///< 1 mm link traversal per flit
    // The PMT structures are tiny (8 entries x 32 b) next to the
    // 64-bit-wide 4-VC router buffers, so per-event energies are an
    // order of magnitude below the flit events.
    double e_cam_search_pj = 0.12;  ///< 8-entry x 32 b CAM search
    double e_cam_write_pj = 0.08;
    double e_tcam_search_pj = 0.22; ///< TCAM search (~1.8x CAM [1])
    double e_tcam_write_pj = 0.12;
    double e_avcl_pj = 0.08;        ///< one AVCL/APCL evaluation
    double e_word_encode_pj = 0.05; ///< encode mux/shift per word
    double e_word_decode_pj = 0.04; ///< decode per word
    double static_power_mw_per_router = 8.0;
    double clock_ghz = 2.0;         ///< Table 1: 2 GHz routers
};

/** Energy totals for one simulation, split by component. */
struct PowerBreakdown {
    double router_pj = 0.0; ///< buffers + crossbar
    double link_pj = 0.0;
    double codec_pj = 0.0;  ///< compression + approximation logic

    double total_pj() const { return router_pj + link_pj + codec_pj; }
};

/** Computes energy/power from network + codec activity counters. */
class PowerModel
{
  public:
    explicit PowerModel(PowerParams params = {}) : p_(params) {}

    const PowerParams &params() const { return p_; }

    /** Dynamic energy of @p net and its codec in its window. */
    PowerBreakdown dynamicEnergy(const Network &net) const;

    /** Mean dynamic power in mW over the window that ends at @p now. */
    double dynamicPowerMw(const Network &net, Cycle now) const;

    /** Static power of the whole NoC in mW (scheme-independent). */
    double staticPowerMw(const Network &net) const;

  private:
    PowerParams p_;
};

} // namespace approxnoc

#endif // APPROXNOC_POWER_POWER_MODEL_H
