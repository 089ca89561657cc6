#include "compression/codec.h"

#include <algorithm>

#include "common/arena.h"
#include "telemetry/phase_profiler.h"

namespace approxnoc {

DecodedSpan
CodecSystem::decodeSpan(const EncodedBlock &enc, NodeId src, NodeId dst,
                        Cycle now, Arena &arena)
{
    DataBlock b = decodeBlock(enc, src, dst, now);
    Word *buf = arena.alloc<Word>(b.size());
    std::copy(b.words().begin(), b.words().end(), buf);
    return DecodedSpan{buf, b.size(), b.type(), b.approximable()};
}

void
CodecSystem::bindProfiler(telemetry::PhaseProfiler *prof)
{
    profiler_ = prof;
    if (profiler_)
        apply_pending_phase_ = profiler_->definePhase("codec.apply_pending");
}

} // namespace approxnoc
