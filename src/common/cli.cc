#include "common/cli.h"

#include <cerrno>
#include <cmath>
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
            values_[a] = "true";
    }
}

bool
CliArgs::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
CliArgs::getString(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

long
CliArgs::getInt(const std::string &name, long def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    std::optional<long> v = whole_long(it->second);
    if (!v)
        ANOC_FATAL("flag --", name, " expects an integer, got '", it->second,
                   "'");
    return *v;
}

double
CliArgs::getDouble(const std::string &name, double def, RealRange range) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const char *s = it->second.c_str();
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
                   it->second, "'");
    }
    return v;
}

unsigned long
CliArgs::getCount(const std::string &name, unsigned long def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    std::optional<long> v = whole_long(it->second);
    if (!v || *v < 0)
        ANOC_FATAL("flag --", name, " expects a non-negative integer, got '",
                   it->second, "'");
    return static_cast<unsigned long>(*v);
}

bool
CliArgs::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    const std::string &v = it->second;
    return v == "true" || v == "1" || v == "yes" || v == "on";
}

} // namespace approxnoc
