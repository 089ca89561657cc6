#include "power/power_model.h"

namespace approxnoc {

PowerBreakdown
PowerModel::dynamicEnergy(const Network &net) const
{
    PowerBreakdown b;

    // Router datapath: every accepted flit is one buffer write and one
    // crossbar traversal (when forwarded); inter-router hops add a link
    // traversal. NI injections also write the first router buffer —
    // already counted in RouterCounts::buffer_writes.
    b.router_pj = static_cast<double>(net.routerBufferWrites()) *
                      p_.e_buffer_write_pj +
                  static_cast<double>(net.routerFlitsForwarded()) *
                      p_.e_switch_pj;
    b.link_pj =
        static_cast<double>(net.routerLinkTraversals()) * p_.e_link_pj;

    const CodecActivity a = net.codecActivity();
    b.codec_pj = static_cast<double>(a.cam_searches) * p_.e_cam_search_pj +
                 static_cast<double>(a.cam_writes) * p_.e_cam_write_pj +
                 static_cast<double>(a.tcam_searches) * p_.e_tcam_search_pj +
                 static_cast<double>(a.tcam_writes) * p_.e_tcam_write_pj +
                 static_cast<double>(a.avcl_ops) * p_.e_avcl_pj +
                 static_cast<double>(a.words_encoded) * p_.e_word_encode_pj +
                 static_cast<double>(a.words_decoded) * p_.e_word_decode_pj;
    return b;
}

double
PowerModel::dynamicPowerMw(const Network &net, Cycle now) const
{
    const Cycle elapsed = now - net.windowStart();
    if (elapsed == 0)
        return 0.0;
    double pj = dynamicEnergy(net).total_pj();
    // P[mW] = E[pJ] / t[ns] ; t = cycles / f[GHz].
    double t_ns = static_cast<double>(elapsed) / p_.clock_ghz;
    return pj / t_ns;
}

double
PowerModel::staticPowerMw(const Network &net) const
{
    return p_.static_power_mw_per_router *
           static_cast<double>(net.config().routers());
}

} // namespace approxnoc
