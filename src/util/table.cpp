#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace topkmon {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::header(std::vector<std::string> cols) {
  TOPKMON_ASSERT_MSG(rows_.empty(), "header must precede rows");
  header_ = std::move(cols);
  return *this;
}

Table& Table::add_row(std::vector<std::string> cells) {
  TOPKMON_ASSERT_MSG(cells.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(cells));
  return *this;
}

Table& Table::add_row_values(const std::vector<double>& cells, int precision) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double v : cells) {
    row.push_back(format_double(v, precision));
  }
  return add_row(std::move(row));
}

namespace {

std::vector<std::size_t> column_widths(const std::vector<std::string>& header,
                                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> w(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    w[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      w[c] = std::max(w[c], row[c].size());
    }
  }
  return w;
}

void append_padded(std::string& out, const std::string& s, std::size_t width) {
  out += s;
  out.append(width - s.size(), ' ');
}

}  // namespace

std::string Table::to_ascii() const {
  const auto w = column_widths(header_, rows_);
  std::string sep = "+";
  for (std::size_t c = 0; c < w.size(); ++c) {
    sep.append(w[c] + 2, '-');
    sep += '+';
  }
  std::string out;
  out += "== " + title_ + " ==\n";
  out += sep + "\n|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out += ' ';
    append_padded(out, header_[c], w[c]);
    out += " |";
  }
  out += "\n" + sep + "\n";
  for (const auto& row : rows_) {
    out += '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      append_padded(out, row[c], w[c]);
      out += " |";
    }
    out += '\n';
  }
  out += sep + "\n";
  return out;
}

std::string Table::to_markdown() const {
  std::string out = "### " + title_ + "\n\n|";
  for (const auto& h : header_) out += " " + h + " |";
  out += "\n|";
  for (std::size_t c = 0; c < header_.size(); ++c) out += " --- |";
  out += "\n";
  for (const auto& row : rows_) {
    out += '|';
    for (const auto& cell : row) out += " " + cell + " |";
    out += '\n';
  }
  return out;
}

std::string Table::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out += header_[c];
    out += (c + 1 < header_.size()) ? ',' : '\n';
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out += (c + 1 < row.size()) ? ',' : '\n';
    }
  }
  return out;
}

std::string Table::to_json() const {
  std::string out = "{\n  \"title\": \"" + json_escape(title_) + "\",\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "    {";
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      out += "\"" + json_escape(header_[c]) + "\": \"" + json_escape(rows_[r][c]) + "\"";
      if (c + 1 < rows_[r].size()) out += ", ";
    }
    out += r + 1 < rows_.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void Table::print(std::ostream& os) const { os << to_ascii() << "\n"; }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

std::string format_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  int c = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (c != 0 && c % 3 == 0) out += ',';
    out += *it;
    ++c;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace topkmon
