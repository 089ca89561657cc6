#include "noc/packet.h"

#include "common/log.h"

namespace approxnoc {

unsigned
payload_flits(std::size_t bits, unsigned flit_bits)
{
    if (bits == 0)
        return 0;
    return static_cast<unsigned>((bits + flit_bits - 1) / flit_bits);
}

void
InFlightTable::adopt(PacketPtr p)
{
    if (free_.empty()) {
        free_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    p->in_flight_slot = slot;
    slots_[slot] = std::move(p);
}

PacketPtr
InFlightTable::release(Packet &p)
{
    ANOC_ASSERT(p.in_flight_slot < slots_.size() &&
                    slots_[p.in_flight_slot].get() == &p,
                "packet ", p.id, " ejected its tail but is not in flight");
    free_.push_back(p.in_flight_slot);
    return std::move(slots_[p.in_flight_slot]);
}

} // namespace approxnoc
