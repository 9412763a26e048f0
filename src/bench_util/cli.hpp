// Minimal --flag=value command-line parser for the benchmark binaries and
// example CLIs (no external dependency; flags unknown to the binary are an
// error so typos do not silently fall back to defaults).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace smpst::bench {

class Cli {
 public:
  /// Parses "--name=value" and bare "--name" (value "1") arguments.
  /// Throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// The numeric getters throw std::invalid_argument naming the flag unless
  /// the whole value is a number ("--n=2e4" is rejected, not read as 2).
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --threads=1,2,4,8.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Errors out (throws) if any parsed flag was never queried; call after all
  /// get_* calls to reject typos.
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace smpst::bench
