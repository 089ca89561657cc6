/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries:
 * "--name=value" for valued flags, bare "--flag" for booleans. A space
 * never separates a flag from its value (that form is ambiguous with
 * positional arguments).
 */
#ifndef APPROXNOC_COMMON_CLI_H
#define APPROXNOC_COMMON_CLI_H

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace approxnoc {

/** Accepted values of a real-valued flag: [lo, hi], or (lo, hi] when
 *  @c lo_open. */
struct RealRange {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
};

/** A percentage, e.g. --threshold. */
inline constexpr RealRange kPercentRange{0.0, 100.0};
/** A fraction, e.g. --approx-ratio, --rate, --data-ratio. */
inline constexpr RealRange kFractionRange{0.0, 1.0};
/** A strictly positive value, e.g. --load. */
inline constexpr RealRange kPositiveRange{.lo = 0.0, .lo_open = true};

/**
 * Parsed command line. The valued getters are fatal on a bare flag
 * (`--metrics-out` with no `=`), and expect() rejects flags the
 * program does not read.
 */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

    /** Every flag given must be one of @p names (fatal otherwise). */
    void expect(const std::vector<std::string> &names) const;

    bool has(const std::string &name) const;

    /** String value of --name, or @p def when absent. */
    std::string getString(const std::string &name, const std::string &def) const;
    /**
     * Numeric value of --name, or @p def when absent. The whole value
     * must parse (decimal, or 0x/0 prefixed for getInt); anything
     * else — empty, trailing characters — is fatal, naming the flag
     * and the value.
     */
    long getInt(const std::string &name, long def) const;
    /** Real value of --name, or @p def when absent. Besides parsing
     *  whole, it must be finite and inside @p range; otherwise it is
     *  fatal, naming the flag, the range and the value. */
    double getDouble(const std::string &name, double def,
                     RealRange range = {}) const;
    /** A count (jobs, cycles, sizes, seeds) of type @p T, parsed as an
     *  unsigned 64-bit number in getInt's bases: a negative value, or
     *  one above T's maximum, is fatal too, so the parse never wraps.
     *  Sums of counts (a run's warmup + cycles) are the caller's to
     *  check. */
    template <std::unsigned_integral T = unsigned long>
    T getCount(const std::string &name, std::type_identity_t<T> def) const
    {
        return static_cast<T>(
            count(name, def, 0, std::numeric_limits<T>::max()));
    }
    /** getCount limited to [@p lo, @p hi]: any other value is fatal,
     *  naming the flag, the range and the value. */
    template <std::unsigned_integral T>
    T getCount(const std::string &name, std::type_identity_t<T> def,
               std::type_identity_t<T> lo, std::type_identity_t<T> hi) const
    {
        return static_cast<T>(count(name, def, lo, hi));
    }
    /** True for a bare --name or --name=true|1|yes|on, false for
     *  --name=false|0|no|off, @p def when absent; any other value is
     *  fatal, naming the flag and the accepted words. */
    bool getBool(const std::string &name, bool def) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    /** The value of --name, nullptr when absent; fatal when bare. */
    const std::string *value(const std::string &name) const;
    std::uint64_t count(const std::string &name, std::uint64_t def,
                        std::uint64_t lo, std::uint64_t hi) const;

    std::string program_;
    /** Flag name -> value; nullopt for a bare flag. */
    std::map<std::string, std::optional<std::string>> values_;
    std::vector<std::string> positional_;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_CLI_H
