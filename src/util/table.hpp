// ASCII / markdown / CSV table emission for benches and examples.
//
// Bench binaries print paper-style tables that zero-drift checks compare
// byte for byte, so the format is stable: fixed-width ASCII with a title
// line, plus optional CSV dump for downstream plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace topkmon {

class Table {
 public:
  explicit Table(std::string title);

  /// Sets the header row; must be called before any `add_row`.
  Table& header(std::vector<std::string> cols);

  /// Appends a row; must have the same arity as the header.
  Table& add_row(std::vector<std::string> cells);

  /// Convenience: formats arithmetic cells with the given precision.
  Table& add_row_values(const std::vector<double>& cells, int precision = 2);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return header_.size(); }
  const std::string& title() const { return title_; }
  const std::vector<std::string>& header_row() const { return header_; }
  const std::vector<std::vector<std::string>>& data() const { return rows_; }

  /// Fixed-width ASCII rendering with a box around the header.
  std::string to_ascii() const;

  /// GitHub-flavoured markdown rendering.
  std::string to_markdown() const;

  /// RFC-4180-ish CSV (no quoting of separators inside cells needed here).
  std::string to_csv() const;

  /// JSON document: {"title": ..., "rows": [{header: cell, ...}, ...]}.
  /// Cells stay strings (they are pre-formatted for humans); machine
  /// consumers wanting raw numbers should use the telemetry export instead.
  std::string to_json() const;

  /// Prints the ASCII rendering to `os` followed by a blank line.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats `v` with `precision` decimals, trimming trailing zeros.
std::string format_double(double v, int precision = 2);

/// Formats an integer with thousands separators ("1,234,567").
std::string format_count(std::uint64_t v);

/// Escapes `s` for the inside of a JSON string literal: `"` and `\`, `\n`
/// and `\t` by their short forms, other control bytes as `\u00XX`.
std::string json_escape(std::string_view s);

}  // namespace topkmon
