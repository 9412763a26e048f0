#include "bench_util/cli.hpp"

#include <sstream>
#include <stdexcept>

namespace smpst::bench {

namespace {

// Numeric values must be consumed whole, so "--n=2e4" or "--threads=1,2x" is
// an error rather than a silent 2.
[[noreturn]] void reject_number(const std::string& name,
                                const std::string& text) {
  throw std::invalid_argument("--" + name + ": not a number: '" + text + "'");
}

std::int64_t parse_int(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  try {
    const std::int64_t value = std::stoll(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {  // no digits, or out of range
  }
  reject_number(name, text);
}

double parse_double(const std::string& name, const std::string& text) {
  std::size_t used = 0;
  try {
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {  // no digits, or out of range
  }
  reject_number(name, text);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag[=value], got: " + arg);
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "1";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_int(name, it->second);
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_double(name, it->second);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(parse_int(name, token));
  }
  return out;
}

void Cli::reject_unknown() const {
  for (const auto& [name, _] : values_) {
    if (queried_.find(name) == queried_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
  }
}

}  // namespace smpst::bench
