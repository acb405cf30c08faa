// Tiny CLI flag parser for examples and bench binaries.
//
// Supported syntax: --name=value, --name value, --flag (boolean true),
// positional arguments are collected in order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace topkmon {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, std::string def) const;
  /// Numeric and boolean getters parse the whole value or throw
  /// std::invalid_argument naming the flag and the value ("--steps=abc" is
  /// an error, not 0; booleans accept exactly true/false/1/0/yes/no).
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Every value the flag was given, in command-line order — the repeatable
  /// flag surface (e.g. `--query` once per monitoring query). Scalar getters
  /// keep last-one-wins semantics. Empty when the flag is absent.
  std::vector<std::string> get_all(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Every flag name that was given on the command line, sorted ascending.
  /// The declarative options layer (apps/options.hpp) uses this to reject
  /// unknown flags instead of silently ignoring typos.
  std::vector<std::string> names() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> all_values_;  ///< per-flag, in order
  std::vector<std::string> positional_;
};

}  // namespace topkmon
