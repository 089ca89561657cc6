#include "traffic/trace.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/log.h"

namespace approxnoc {

namespace {

/** @p tok as a whole unsigned number in @p base, if it is one and is at
 * most @p max. */
std::optional<std::uint64_t>
parse_unsigned(const std::string &tok, int base, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
    if (tok.empty() || ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

} // namespace

Cycle
CommTrace::duration() const
{
    return records_.empty() ? 0 : records_.back().t;
}

double
CommTrace::dataPacketRatio() const
{
    if (records_.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &r : records_)
        n += r.isData() ? 1 : 0;
    return static_cast<double>(n) / static_cast<double>(records_.size());
}

std::vector<DataBlock>
CommTrace::blocks() const
{
    std::vector<DataBlock> out;
    out.reserve(blocks_.size());
    for (std::uint32_t i = 0; i < blocks_.size(); ++i)
        out.push_back(block(i).copy());
    return out;
}

void
CommTrace::save(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        ANOC_FATAL("cannot open trace file for writing: ", path);
    f << "# approxnoc trace v1\n";
    for (const BlockHeader &h : blocks_) {
        f << "B " << to_string(h.type) << " " << (h.approximable ? 1 : 0)
          << " " << h.size;
        char buf[16];
        for (std::size_t i = h.offset; i < h.offset + h.size; ++i) {
            std::snprintf(buf, sizeof(buf), " %08x", words_[i]);
            f << buf;
        }
        f << "\n";
    }
    for (const auto &r : records_) {
        f << "R " << r.t << " " << r.src << " " << r.dst << " "
          << (r.isData() ? 'D' : 'C') << " ";
        if (r.isData())
            f << r.block;
        else
            f << "-";
        f << "\n";
    }
    f.close();
    if (!f)
        ANOC_FATAL("cannot write trace file: ", path);
}

CommTrace
CommTrace::load(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        ANOC_FATAL("cannot open trace file: ", path);
    CommTrace t;
    t.origin_ = path;
    std::string line;
    std::size_t line_no = 0;
    auto fail = [&](const auto &...what) {
        ANOC_FATAL(path, ":", line_no, ": bad trace line: ", what...);
    };
    auto number = [&](const std::string &tok, const char *field, int base,
                      std::uint64_t max) {
        auto v = parse_unsigned(tok, base, max);
        if (!v)
            fail(field, " '", tok, "' is not a number in [0, ", max, "]");
        return *v;
    };
    std::vector<Word> ws;
    while (std::getline(f, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::vector<std::string> tok;
        for (std::string s; is >> s;)
            tok.push_back(std::move(s));
        if (tok.empty())
            continue;
        if (tok[0] == "B") {
            // B <type> <approximable> <n> <n hex words>
            if (tok.size() < 4)
                fail("block needs a type, an approximable flag and a word "
                     "count");
            DataType type = DataType::Raw;
            if (tok[1] == "int32")
                type = DataType::Int32;
            else if (tok[1] == "float32")
                type = DataType::Float32;
            else if (tok[1] != "raw")
                fail("unknown data type '", tok[1],
                     "' (expected int32, float32 or raw)");
            if (tok[2] != "0" && tok[2] != "1")
                fail("approximable flag '", tok[2], "' is not 0 or 1");
            const std::size_t n = number(tok[3], "word count", 10,
                                         kMaxBlockWords);
            if (tok.size() != 4 + n)
                fail("block declares ", n, " words but has ",
                     tok.size() - 4);
            ws.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                auto w = parse_unsigned(tok[4 + i], 16,
                                        std::numeric_limits<Word>::max());
                if (!w)
                    fail("word ", i, " '", tok[4 + i],
                         "' is not a 32-bit hex number");
                ws[i] = static_cast<Word>(*w);
            }
            t.addBlock(ws, type, tok[2] == "1");
        } else if (tok[0] == "R") {
            // R <t> <src> <dst> <D|C> <block index or ->
            if (tok.size() != 6)
                fail("record needs exactly t, src, dst, class and block");
            TraceRecord r;
            r.t = number(tok[1], "time", 10,
                         std::numeric_limits<Cycle>::max());
            r.src = static_cast<std::uint16_t>(
                number(tok[2], "source", 10, TraceRecord::kMaxNode));
            r.dst = static_cast<std::uint16_t>(
                number(tok[3], "destination", 10, TraceRecord::kMaxNode));
            if (tok[4] != "D" && tok[4] != "C")
                fail("packet class '", tok[4], "' is not D or C");
            // A record is data exactly when it names a block, so the
            // other two forms would replay as the wrong packet class.
            if (tok[4] == "D" && tok[5] == "-")
                fail("data record has no block");
            if (tok[4] == "C" && tok[5] != "-")
                fail("control record names block '", tok[5], "'");
            if (tok[5] != "-") {
                r.block = static_cast<std::uint32_t>(
                    number(tok[5], "block index", 10,
                           TraceRecord::kNoBlock - 1));
                if (r.block >= t.blocks_.size())
                    fail("block index ", r.block, " has no B line before it");
            }
            if (!t.records_.empty() && r.t < t.records_.back().t)
                fail("time ", r.t, " is before the previous record's ",
                     t.records_.back().t);
            t.add(r);
        } else {
            fail("unknown record tag '", tok[0], "' (expected B or R)");
        }
    }
    return t;
}

} // namespace approxnoc
