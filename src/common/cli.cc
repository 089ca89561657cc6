#include "common/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>

#include "common/log.h"

namespace approxnoc {

namespace {

/** @p s as one whole integer (decimal, or 0x/0 prefixed), if it is. */
std::optional<long>
whole_long(const std::string &s)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

/** @p s as one whole non-negative integer (decimal, or 0x/0 prefixed),
 *  if it is one. A value above 2^64 - 1 sets @p too_large. */
std::optional<std::uint64_t>
whole_count(const std::string &s, bool &too_large)
{
    too_large = false;
    // strtoull accepts a sign after leading spaces and wraps negatives.
    const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
    if (first == std::string::npos || s[first] == '-')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0')
        return std::nullopt;
    too_large = errno == ERANGE;
    return v;
}

} // namespace

CliArgs::CliArgs(int argc, char **argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            positional_.push_back(a);
            continue;
        }
        a = a.substr(2);
        auto eq = a.find('=');
        if (eq != std::string::npos)
            values_[a.substr(0, eq)] = a.substr(eq + 1);
        else
            values_[a] = std::nullopt;
    }
}

void
CliArgs::expect(const std::vector<std::string> &names) const
{
    for (const auto &[name, v] : values_)
        if (std::find(names.begin(), names.end(), name) == names.end())
            ANOC_FATAL("unknown flag --", name);
}

const std::string *
CliArgs::value(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return nullptr;
    if (!it->second)
        ANOC_FATAL("flag --", name, " needs a value (--", name, "=...)");
    return &*it->second;
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    const std::string *v = value(name);
    return v ? *v : def;
}

long
CliArgs::getInt(const std::string &name, long def) const
{
    const std::string *s = value(name);
    if (!s)
        return def;
    std::optional<long> v = whole_long(*s);
    if (!v)
        ANOC_FATAL("flag --", name, " expects an integer, got '", *s, "'");
    return *v;
}

double
CliArgs::getDouble(const std::string &name, double def, RealRange range) const
{
    const std::string *text = value(name);
    if (!text)
        return def;
    const char *s = text->c_str();
    char *end = nullptr;
    double v = std::strtod(s, &end);
    const bool inside = std::isfinite(v) &&
                        (range.lo_open ? v > range.lo : v >= range.lo) &&
                        v <= range.hi;
    if (end == s || *end != '\0' || !inside) {
        // Name the interval unless the flag takes any finite number.
        std::string interval;
        if (range.lo_open || std::isfinite(range.lo) || std::isfinite(range.hi))
            interval = detail::format_args(
                " in ", range.lo_open || !std::isfinite(range.lo) ? "(" : "[",
                range.lo, ", ", range.hi, std::isfinite(range.hi) ? "]" : ")");
        ANOC_FATAL("flag --", name, " expects a number", interval, ", got '",
                   *text, "'");
    }
    return v;
}

std::uint64_t
CliArgs::count(const std::string &name, std::uint64_t def, std::uint64_t lo,
               std::uint64_t hi) const
{
    const std::string *s = value(name);
    if (!s)
        return def;
    bool too_large = false;
    std::optional<std::uint64_t> v = whole_count(*s, too_large);
    if (lo > 0 && !(v && !too_large && *v >= lo && *v <= hi))
        ANOC_FATAL("flag --", name, " expects an integer in [", lo, ", ", hi,
                   "], got '", *s, "'");
    if (!v)
        ANOC_FATAL("flag --", name, " expects a non-negative integer, got '",
                   *s, "'");
    if (too_large || *v > hi)
        ANOC_FATAL("flag --", name,
                   " expects a non-negative integer no larger than ", hi,
                   ", got '", *s, "'");
    return *v;
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    if (!it->second)
        return true;
    const std::string &v = *it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    ANOC_FATAL("flag --", name, " expects true, 1, yes, on, false, 0, no ",
               "or off, got '", v, "'");
}

} // namespace approxnoc
