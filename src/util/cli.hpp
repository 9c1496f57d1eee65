// Minimal command-line parsing for bench and example binaries.
//
// Accepts `--name=value` and `--flag` forms. Unknown options are an error so
// that typos in experiment sweeps fail loudly instead of silently running
// the default configuration. Malformed values are also errors: empty values
// (`--trials=`), trailing garbage, and out-of-range numbers all throw
// instead of silently parsing to 0 or clamping. `--help` prints every
// declared option with its default and exits 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace fnr {

class Cli {
 public:
  /// Parses argv. Throws CheckError on malformed input.
  Cli(int argc, const char* const* argv);

  /// Declares an option and returns its value (or `fallback` if absent).
  /// Throws CheckError on an empty value, trailing garbage, or a value that
  /// overflows a 64-bit integer (no silent clamping to LLONG_MAX/MIN).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback);
  /// Same contract for doubles (empty, malformed, and ERANGE values throw).
  [[nodiscard]] double get_double(const std::string& name, double fallback);
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback);
  /// Boolean option. Accepted spellings (case-sensitive):
  ///   on:  `--flag`, `--flag=1`, `--flag=true`, `--flag=yes`, `--flag=on`
  ///   off: absent, `--flag=0`, `--flag=false`, `--flag=no`, `--flag=off`
  /// Any other value throws CheckError (historically `--flag=no` silently
  /// meant *on*; unrecognized spellings are now rejected).
  [[nodiscard]] bool get_flag(const std::string& name);

  /// Call after all get_* declarations. On `--help`, prints usage() to
  /// stdout and exits 0; otherwise throws if the user passed an option that
  /// was never declared.
  void reject_unknown() const;

  /// One line per declared option, `--name  (default: fallback)`.
  [[nodiscard]] std::string usage() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::string> declared_;  ///< name -> default, shown
};

}  // namespace fnr
