#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace fnr {

Cli::Cli(int argc, const char* const* argv)
    : program_(argc > 0 ? argv[0] : "program") {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    FNR_CHECK_MSG(arg.rfind("--", 0) == 0,
                  "expected --name[=value], got '" << arg << "'");
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "1";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) {
  declared_.emplace(name, std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int64(it->second, "option --" + name);
}

double Cli::get_double(const std::string& name, double fallback) {
  std::ostringstream shown;
  shown << fallback;
  declared_.emplace(name, shown.str());
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_double(it->second, "option --" + name);
}

std::string Cli::get_string(const std::string& name, std::string fallback) {
  declared_.emplace(name, "'" + fallback + "'");
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

bool Cli::get_flag(const std::string& name) {
  declared_.emplace(name, "off");
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  const std::string& v = it->second;
  // "1" is also what the bare `--flag` form parses to.
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  FNR_CHECK_MSG(false, "option --" << name << " expects a boolean "
                                   << "(1/true/yes/on or 0/false/no/off), "
                                   << "got '" << v << "'");
  return false;
}

void Cli::reject_unknown() const {
  if (values_.contains("help")) {
    std::cout << usage();
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    FNR_CHECK_MSG(declared_.contains(name), "unknown option --" << name);
  }
}

std::string Cli::usage() const {
  std::ostringstream out;
  out << "usage: " << program_ << " [--name=value | --flag]...\n";
  for (const auto& [name, fallback] : declared_)
    out << "  --" << name << "  (default: " << fallback << ")\n";
  out << "  --help  (print this list and exit)\n";
  return out.str();
}

}  // namespace fnr
