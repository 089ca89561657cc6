#include "tracing.h"

#include <cstdio>

#include "compression/encoded.h"

using namespace approxnoc;

namespace perfbench {

const char *
layer_name(Layer l)
{
    switch (l) {
      case kSim: return "sim";
      case kTraceGen: return "trace_gen";
      case kTraffic: return "traffic";
      case kNi: return "noc.ni";
      case kRouter: return "noc.router";
      case kNetwork: return "noc.network";
      case kEncode: return "codec.encode";
      case kDecode: return "codec.decode";
      case kReplay: return "harness.replay";
      case kWrite: return "harness.write";
      case kProbe: return "bench.probe";
      case kLayerCount: break;
    }
    return "?";
}

// ------------------------------------------------------------ recorder

void
SpanRecorder::open(Layer l, std::int64_t t)
{
    std::int64_t id = -1;
    if (spans_.size() < kKeptSpans) {
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back({l, 0, 0, stack_.empty() ? -1 : stack_.back().id});
    }
    stack_.push_back({l, t, 0, id});
}

void
SpanRecorder::chain(Layer l)
{
    const std::int64_t t = nowNs();
    if (chained_)
        close(t);
    open(l, t);
    chained_ = true;
}

void
SpanRecorder::unchain()
{
    if (chained_) {
        close(nowNs());
        chained_ = false;
    }
}

void
SpanRecorder::close(std::int64_t t)
{
    Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - f.start_ns;
    total_ns_[f.layer] += dur;
    self_ns_[f.layer] += dur - f.child_ns;
    if (!stack_.empty())
        stack_.back().child_ns += dur;
    if (f.id >= 0) {
        spans_[static_cast<std::size_t>(f.id)].start_ns = f.start_ns;
        spans_[static_cast<std::size_t>(f.id)].end_ns = t;
    }
}

void
SpanRecorder::resetTotals()
{
    total_ns_.fill(0);
    self_ns_.fill(0);
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                     i ? ",\n" : "", layer_name(s.layer),
                     static_cast<double>(s.start_ns - t0) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                     static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------- timed group

void
TimedGroup::evaluate(Cycle now)
{
    if (probe_ && now % kProbeEvery == 0) {
        rec_.chain(kProbe);
        probe_();
    }
    rec_.chain(layer_);
    for (Clocked *c : members_)
        c->evaluate(now);
}

void
TimedGroup::advance(Cycle now)
{
    rec_.chain(layer_);
    for (Clocked *c : members_)
        c->advance(now);
    if (last_)
        rec_.unchain();
}

// ---------------------------------------------------------- timed codec

EncodedBlock
TimedCodec::tallyEncoded(EncodedBlock enc)
{
    ++tally_.encode_blocks;
    tally_.words += enc.wordCount();
    tally_.exact_words += enc.exactCompressedWords();
    tally_.approx_words += enc.approximatedWords();
    return enc;
}

EncodedBlock
TimedCodec::encode(const DataBlock &block, NodeId src, NodeId dst, Cycle now)
{
    rec_.begin(kEncode);
    EncodedBlock enc = inner_.encode(block, src, dst, now);
    rec_.end();
    return tallyEncoded(std::move(enc));
}

EncodedBlock
TimedCodec::encodeBlock(const DataBlock &block, NodeId src, NodeId dst,
                        Cycle now)
{
    rec_.begin(kEncode);
    EncodedBlock enc = inner_.encodeBlock(block, src, dst, now);
    rec_.end();
    return tallyEncoded(std::move(enc));
}

EncodedBlock
TimedCodec::encodeSpan(const DataBlock &block, NodeId src, NodeId dst,
                       Cycle now, Arena &arena)
{
    rec_.begin(kEncode);
    EncodedBlock enc = inner_.encodeSpan(block, src, dst, now, arena);
    rec_.end();
    return tallyEncoded(std::move(enc));
}

DataBlock
TimedCodec::decode(const EncodedBlock &enc, NodeId src, NodeId dst,
                   Cycle now)
{
    Scope s(rec_, kDecode);
    ++tally_.decode_blocks;
    return inner_.decode(enc, src, dst, now);
}

DataBlock
TimedCodec::decodeBlock(const EncodedBlock &enc, NodeId src, NodeId dst,
                        Cycle now)
{
    Scope s(rec_, kDecode);
    ++tally_.decode_blocks;
    return inner_.decodeBlock(enc, src, dst, now);
}

DecodedSpan
TimedCodec::decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                       Cycle now, Arena &arena)
{
    Scope s(rec_, kDecode);
    ++tally_.decode_blocks;
    return inner_.decodeSpan(enc, src, dst, now, arena);
}

std::vector<CodecSystem::Notification>
TimedCodec::drainNotifications(NodeId dst)
{
    ++tally_.drain_calls;
    std::vector<Notification> out = inner_.drainNotifications(dst);
    tally_.notifications += out.size();
    return out;
}

} // namespace perfbench
