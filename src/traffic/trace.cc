#include "traffic/trace.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <string_view>

#include "common/log.h"

namespace approxnoc {

namespace {

/** @p tok as a whole unsigned number in @p base, if it is one and is at
 * most @p max. */
std::optional<std::uint64_t>
parse_unsigned(std::string_view tok, int base, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = tok.data() + tok.size();
    auto [ptr, ec] = std::from_chars(tok.data(), end, v, base);
    if (tok.empty() || ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

/** The whitespace-separated tokens of @p line, as `istream >>` splits
 * them in the C locale, into @p tok (cleared first). */
void
split_tokens(std::string_view line, std::vector<std::string_view> &tok)
{
    const auto space = [](char c) {
        return c == ' ' || (c >= '\t' && c <= '\r');
    };
    tok.clear();
    const char *p = line.data();
    const char *end = p + line.size();
    while (true) {
        while (p != end && space(*p))
            ++p;
        if (p == end)
            return;
        const char *b = p;
        while (p != end && !space(*p))
            ++p;
        tok.emplace_back(b, p - b);
    }
}

char *
put(char *p, std::string_view s)
{
    return std::copy(s.begin(), s.end(), p);
}

char *
put(char *p, std::uint64_t v)
{
    return std::to_chars(p, p + 20, v).ptr; // 2^64 - 1 has 20 digits
}

/** @p w as `%08x` prints it: eight lowercase hex digits. */
char *
put_word(char *p, Word w)
{
    char digits[8];
    char *end = std::to_chars(digits, digits + 8, w, 16).ptr;
    p = std::fill_n(p, 8 - (end - digits), '0');
    return std::copy(digits, end, p);
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
    // Lines are formatted into buf, which goes to the file whenever the
    // longest line (a kMaxBlockWords block) might not fit after them.
    constexpr std::size_t kLongestLine = 32 + 9 * kMaxBlockWords;
    std::vector<char> buf(4 * kLongestLine);
    char *p = buf.data();
    auto make_room = [&] {
        if (p + kLongestLine > buf.data() + buf.size()) {
            f.write(buf.data(), p - buf.data());
            p = buf.data();
        }
    };
    p = put(p, "# approxnoc trace v1\n");
    for (const BlockHeader &h : blocks_) {
        make_room();
        p = put(p, "B ");
        p = put(p, to_string(h.type));
        p = put(p, h.approximable ? " 1 " : " 0 ");
        p = put(p, h.size);
        for (Word w : words_.run(h.offset, h.size)) {
            *p++ = ' ';
            p = put_word(p, w);
        }
        *p++ = '\n';
    }
    for (const TraceRecord &r : records_) {
        make_room();
        p = put(p, "R ");
        p = put(p, r.t);
        *p++ = ' ';
        p = put(p, r.src);
        *p++ = ' ';
        p = put(p, r.dst);
        if (r.isData()) {
            p = put(p, " D ");
            p = put(p, r.block);
        } else {
            p = put(p, " C -");
        }
        *p++ = '\n';
    }
    f.write(buf.data(), p - buf.data());
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
    auto number = [&](std::string_view tok, const char *field, int base,
                      std::uint64_t max) {
        auto v = parse_unsigned(tok, base, max);
        if (!v)
            fail(field, " '", tok, "' is not a number in [0, ", max, "]");
        return *v;
    };
    std::vector<std::string_view> tok;
    std::vector<Word> ws;
    while (std::getline(f, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        split_tokens(line, tok);
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
