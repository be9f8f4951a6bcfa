// Strict numbers for the example programs' command lines. strtoul and
// strtod read "-1" as 2^64 - 1 and junk as 0, and casting an
// out-of-range double to an integer is undefined; here a malformed or
// out-of-range value prints the problem and the program's usage and
// exits with status 1.

#ifndef PTRIDER_EXAMPLES_CLI_ARGS_H_
#define PTRIDER_EXAMPLES_CLI_ARGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/string_util.h"

namespace ptrider::examples {

class CliArgs {
 public:
  explicit CliArgs(const char* usage) : usage_(usage) {}

  /// Prints `problem` and the usage to stderr and exits with status 1.
  [[noreturn]] void Fail(const std::string& problem) const {
    std::fprintf(stderr, "%s\n%s", problem.c_str(), usage_);
    std::exit(1);
  }

  /// `text` (the value of `what`) as an integer in [lo, hi], or Fail.
  int64_t Int(const std::string& what, const char* text, int64_t lo,
              int64_t hi) const {
    const auto value = util::ParseInt(text);
    if (!value.ok() || *value < lo || *value > hi) {
      Fail(util::StrFormat("%s: '%s' is not an integer in [%lld, %lld]",
                           what.c_str(), text, static_cast<long long>(lo),
                           static_cast<long long>(hi)));
    }
    return *value;
  }

  /// `text` (the value of `what`) as a number in [lo, hi], or Fail.
  double Number(const std::string& what, const char* text, double lo,
                double hi) const {
    const auto value = util::ParseDouble(text);
    if (!value.ok() || !(*value >= lo && *value <= hi)) {
      Fail(util::StrFormat("%s: '%s' is not a number in [%g, %g]",
                           what.c_str(), text, lo, hi));
    }
    return *value;
  }

 private:
  const char* usage_;
};

}  // namespace ptrider::examples

#endif  // PTRIDER_EXAMPLES_CLI_ARGS_H_
