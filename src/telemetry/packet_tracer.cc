#include "telemetry/packet_tracer.h"

#include <algorithm>
#include <cstdio>

#include "common/table.h"

namespace approxnoc::telemetry {

bool
PacketTracer::admit()
{
    if (events_.size() >= max_events_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
PacketTracer::span(std::uint32_t tid, const std::string &name, Cycle start,
                   Cycle dur, std::string args)
{
    if (!admit())
        return;
    events_.push_back({name, 'X', start, dur, tid, std::move(args)});
}

void
PacketTracer::instant(std::uint32_t tid, const std::string &name, Cycle ts,
                      std::string args)
{
    if (!admit())
        return;
    events_.push_back({name, 'i', ts, 0, tid, std::move(args)});
}

void
PacketTracer::counter(std::uint32_t tid, const std::string &name, Cycle ts,
                      double value)
{
    if (!admit())
        return;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g}", value);
    events_.push_back({name, 'C', ts, 0, tid, buf});
}

void
PacketTracer::writeJson(std::ostream &os) const
{
    // Canonical total order: same-key events are byte-identical in
    // the output, so the file is a function of the event multiset —
    // record order is erased.
    std::vector<const TraceEvent *> order;
    order.reserve(events_.size());
    for (const auto &e : events_)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const TraceEvent *a, const TraceEvent *b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->ts != b->ts)
                      return a->ts < b->ts;
                  if (a->ph != b->ph)
                      return a->ph < b->ph;
                  if (a->name != b->name)
                      return a->name < b->name;
                  if (a->dur != b->dur)
                      return a->dur < b->dur;
                  return a->args < b->args;
              });

    os << "{\n\"traceEvents\": [";
    bool first = true;
    auto sep = [&] {
        os << (first ? "\n" : ",\n");
        first = false;
    };
    if (!process_name_.empty()) {
        sep();
        os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid_
           << ", \"tid\": 0, \"args\": {\"name\": \""
           << json_escape(process_name_) << "\"}}";
    }
    for (const auto &[tid, name] : thread_names_) {
        sep();
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid_
           << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
           << json_escape(name) << "\"}}";
    }
    for (const TraceEvent *e : order) {
        sep();
        os << "{\"name\": \"" << json_escape(e->name)
           << "\", \"cat\": \"noc\", \"ph\": \"" << e->ph
           << "\", \"ts\": " << e->ts;
        if (e->ph == 'X')
            os << ", \"dur\": " << e->dur;
        if (e->ph == 'i')
            os << ", \"s\": \"t\"";
        os << ", \"pid\": " << pid_ << ", \"tid\": " << e->tid;
        if (!e->args.empty())
            os << ", \"args\": " << e->args;
        os << "}";
    }
    os << (first ? "" : "\n") << "],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

} // namespace approxnoc::telemetry
