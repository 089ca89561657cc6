/**
 * @file
 * Packets and flits. A packet is packetized into a head flit (header,
 * never compressed) plus enough 64-bit payload flits for the block's
 * network representation; control packets are a single flit.
 */
#ifndef APPROXNOC_NOC_PACKET_H
#define APPROXNOC_NOC_PACKET_H

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/data_block.h"
#include "common/types.h"
#include "compression/encoded.h"

namespace approxnoc {

/** A packet in flight, shared by all of its flits. */
struct Packet {
    std::uint64_t id = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    PacketClass cls = PacketClass::Control;

    /** Total flits including the head flit. */
    unsigned n_flits = 1;
    /** Reassembly progress at the destination NI. */
    unsigned ejected_flits = 0;

    /** The precise block handed to the NI (data packets). */
    DataBlock precise;
    /** The network representation produced by the encoder. */
    EncodedBlock enc;
    /** The block the decoder reconstructed (set at delivery). */
    DataBlock delivered;

    /** @name Timestamps (cycles) */
    ///@{
    Cycle created = 0;      ///< handed to the NI
    Cycle inject_start = kNeverCycle; ///< head flit entered the router
    Cycle eject_done = kNeverCycle;   ///< tail flit left the network
    Cycle decode_done = kNeverCycle;  ///< decompression finished
    ///@}

    /** Queue latency: NI arrival to head-flit injection. */
    Cycle queueLatency() const { return inject_start - created; }
    /** Network latency: injection to tail ejection. */
    Cycle netLatency() const { return eject_done - inject_start; }
    /** Decode latency charged at the ejection side. */
    Cycle decodeLatency() const { return decode_done - eject_done; }
    /** Total packet latency (the paper's Fig. 9 metric). */
    Cycle totalLatency() const { return decode_done - created; }

    /** Its slot in the network's InFlightTable while that owns it. */
    std::uint32_t in_flight_slot = 0;
};

using PacketPtr = std::shared_ptr<Packet>;

/**
 * One flit of a packet. It points at its packet without owning it:
 * the source NI owns the packet until the tail flit leaves it, then
 * the network's InFlightTable does until the tail ejects, so the
 * packet outlives every one of its flits.
 */
struct Flit {
    Packet *pkt = nullptr;
    /** Cycle this flit entered the buffer it currently occupies. */
    Cycle arrival = 0;
    unsigned seq = 0; ///< 0 = head
    bool is_tail = false;

    bool isHead() const { return seq == 0; }
};
static_assert(std::is_trivially_copyable_v<Flit>);

/**
 * Owns each packet of one network from its tail flit's injection to
 * its tail flit's ejection. Before that the source NI owns it, because
 * a head flit can eject before its tail leaves the NI.
 */
class InFlightTable
{
  public:
    /** Take @p p over as its tail flit enters the network. */
    void adopt(PacketPtr p);
    /** Hand back @p p, whose tail flit has just ejected. */
    PacketPtr release(Packet &p);

  private:
    std::vector<PacketPtr> slots_;
    std::vector<std::uint32_t> free_; ///< empty slots of slots_
};

/** Flits a payload of @p bits occupies at @p flit_bits per flit. */
unsigned payload_flits(std::size_t bits, unsigned flit_bits);

} // namespace approxnoc

#endif // APPROXNOC_NOC_PACKET_H
