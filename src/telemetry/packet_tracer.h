/**
 * @file
 * Packet lifecycle tracing in the Chrome trace-event JSON format
 * (loadable in Perfetto / chrome://tracing). Tracks map onto hardware:
 * tid 0..N-1 are the network endpoints (NI injection/ejection plus the
 * encode/decode spans of packets they source), tid 1000+r are the
 * routers (per-flit VC allocation and switch/link traversal instants).
 * One simulated cycle is emitted as one microsecond of trace time.
 *
 * The writer sorts events by the full canonical key
 * (tid, ts, ph, name, dur, args), so timestamps are monotonic within
 * every track no matter when the events were recorded — lifecycle
 * spans are reconstructed at delivery time from the packet's
 * timestamps, out of order with the router instants — and the output
 * is a pure function of the recorded event *multiset*.
 *
 * A tracer belongs to one simulation and is used by one thread.
 */
#ifndef APPROXNOC_TELEMETRY_PACKET_TRACER_H
#define APPROXNOC_TELEMETRY_PACKET_TRACER_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace approxnoc::telemetry {

/** One recorded trace event (pre-rendered args). */
struct TraceEvent {
    std::string name;
    char ph = 'i';          ///< 'X' span, 'i' instant, 'C' counter
    Cycle ts = 0;           ///< start cycle (emitted as µs)
    Cycle dur = 0;          ///< span length ('X' only)
    std::uint32_t tid = 0;  ///< track within the process
    std::string args;       ///< rendered JSON object body, "" = none
};

/** Bounded in-memory trace-event recorder. */
class PacketTracer
{
  public:
    /**
     * @param pid trace process id (one per simulated network, e.g. the
     *        experiment point index).
     * @param max_events recording stops (and counts drops) beyond this
     *        bound so a saturated run cannot exhaust memory.
     */
    explicit PacketTracer(std::uint32_t pid = 0,
                          std::size_t max_events = 1u << 20)
        : pid_(pid), max_events_(max_events)
    {}

    /** @name Track naming */
    ///@{
    static std::uint32_t nodeTrack(NodeId n) { return n; }
    static std::uint32_t routerTrack(RouterId r) { return 1000 + r; }
    /** Counter tracks (epoch time-series rendered as Perfetto counter
     * plots); one tid hosts any number of named counter series. */
    static std::uint32_t counterTrack() { return 2000; }
    void setProcessName(std::string name) { process_name_ = std::move(name); }
    void setThreadName(std::uint32_t tid, std::string name)
    {
        thread_names_[tid] = std::move(name);
    }
    ///@}

    /** Record a complete span [start, start+dur) on @p tid. */
    void span(std::uint32_t tid, const std::string &name, Cycle start,
              Cycle dur, std::string args = {});

    /** Record an instant event at @p ts on @p tid. */
    void instant(std::uint32_t tid, const std::string &name, Cycle ts,
                 std::string args = {});

    /** Record a Perfetto counter sample (ph 'C') at @p ts on @p tid:
     * the named series plots @p value over trace time. */
    void counter(std::uint32_t tid, const std::string &name, Cycle ts,
                 double value);

    std::uint32_t pid() const { return pid_; }
    std::size_t events() const { return events_.size(); }
    /** Events discarded after hitting max_events (never silent). */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Emit `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Every
     * event carries name/cat/ph/ts/pid/tid (plus dur for spans); the
     * metadata (process/thread name) events lead, then payload events
     * in canonical (tid, ts, ph, name, dur, args) order — a total
     * order, so the file depends only on what was recorded, never on
     * the order it was recorded in.
     */
    void writeJson(std::ostream &os) const;

  private:
    bool admit();

    std::uint32_t pid_;
    std::size_t max_events_;
    std::uint64_t dropped_ = 0;
    std::string process_name_;
    std::map<std::uint32_t, std::string> thread_names_;
    std::vector<TraceEvent> events_;
};

} // namespace approxnoc::telemetry

#endif // APPROXNOC_TELEMETRY_PACKET_TRACER_H
