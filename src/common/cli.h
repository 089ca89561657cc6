/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries:
 * "--name=value" for valued flags, bare "--flag" for booleans. A space
 * never separates a flag from its value (that form is ambiguous with
 * positional arguments).
 */
#ifndef APPROXNOC_COMMON_CLI_H
#define APPROXNOC_COMMON_CLI_H

#include <map>
#include <string>
#include <vector>

namespace approxnoc {

/** Parsed command line. Unknown flags are kept and can be rejected. */
class CliArgs
{
  public:
    CliArgs(int argc, char **argv);

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
    double getDouble(const std::string &name, double def) const;
    /** getInt for counts (jobs, cycles, sizes): a negative value is
     *  fatal too, so it never wraps into a huge unsigned. */
    unsigned long getCount(const std::string &name, unsigned long def) const;
    bool getBool(const std::string &name, bool def) const;

    /** Positional (non-flag) arguments. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace approxnoc

#endif // APPROXNOC_COMMON_CLI_H
