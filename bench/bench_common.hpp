// Shared glue for the experiment-table binaries.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_support/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace topkmon::bench {

/// Common CLI: --trials, --steps, --seed, --csv (emit CSV after the table),
/// --json=<path> (append every emitted table to a machine-readable JSON
/// file for the perf trajectory), --threads (sweep pool size; 0 = auto),
/// --telemetry[=<path>] (attach the per-phase step profiler to every cell
/// and write the telemetry JSON document — src/telemetry — at exit; the
/// scoped timers run ONLY with this flag, keeping default bench runs
/// perf-identical to a telemetry-less build). Any other flag is a typo: the
/// bench prints it and exits 2 instead of silently running the defaults.
struct BenchArgs {
  std::size_t trials = 5;
  TimeStep steps = 600;
  std::uint64_t seed = 42;
  bool csv = false;
  std::string json;
  std::size_t threads = 0;
  std::string telemetry;  ///< telemetry JSON path; empty = off

  static BenchArgs parse(int argc, char** argv) {
    Flags flags(argc, argv);
    static constexpr std::string_view kKnown[] = {"trials", "steps",   "seed",
                                                  "csv",    "json",    "threads",
                                                  "telemetry"};
    for (const std::string& given : flags.names()) {
      if (std::find(std::begin(kKnown), std::end(kKnown), given) == std::end(kKnown)) {
        std::cerr << flags.program() << ": unknown flag --" << given
                  << " (known: --trials --steps --seed --csv --json --threads "
                     "--telemetry)\n";
        std::exit(2);
      }
    }
    BenchArgs a;
    a.trials = flags.get_uint("trials", a.trials);
    a.steps = static_cast<TimeStep>(flags.get_uint("steps", a.steps));
    a.seed = flags.get_uint("seed", a.seed);
    a.csv = flags.get_bool("csv", false);
    a.json = flags.get_string("json", "");
    a.threads = flags.get_uint("threads", 0);
    if (flags.has("telemetry")) {
      const std::string v = flags.get_string("telemetry", "telemetry.json");
      a.telemetry = (v.empty() || v == "true") ? "telemetry.json" : v;
    }
    return a;
  }
};

/// The binary-wide telemetry sink of a sweep bench: run_sweep calls pass
/// sweep_sink(args) (null unless --telemetry is set, keeping the default run
/// profile-free), and main ends with write_telemetry(args, sweep_telemetry(),
/// source).
inline telemetry::TelemetrySink& sweep_telemetry() {
  static telemetry::TelemetrySink sink;
  return sink;
}

inline telemetry::TelemetrySink* sweep_sink(const BenchArgs& args) {
  return args.telemetry.empty() ? nullptr : &sweep_telemetry();
}

/// Writes the sink as telemetry JSON when --telemetry is set (no-op
/// otherwise); benches call this once after the last cell.
inline void write_telemetry(const BenchArgs& args,
                            const telemetry::TelemetrySink& sink,
                            std::string_view source) {
  if (args.telemetry.empty()) return;
  if (telemetry::write_text_file(args.telemetry,
                                 telemetry::to_json(sink, source))) {
    std::cout << "wrote telemetry JSON (" << telemetry::kTelemetrySchema
              << ") to " << args.telemetry << "\n";
  }
}

namespace detail {

inline std::string json_escape(const std::string& s) {
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

/// Emits a table cell as a JSON number when it parses as one (ignoring the
/// thousands separators format_count inserts), else as a string.
inline std::string json_cell(const std::string& cell) {
  std::string stripped;
  stripped.reserve(cell.size());
  for (const char c : cell) {
    if (c != ',') stripped += c;
  }
  if (!stripped.empty()) {
    char* end = nullptr;
    const double v = std::strtod(stripped.c_str(), &end);
    if (end != nullptr && *end == '\0') {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return buf;
    }
  }
  return "\"" + json_escape(cell) + "\"";
}

inline void append_table_json(std::string& out, const Table& table) {
  out += "    {\"title\": \"" + json_escape(table.title()) + "\", \"rows\": [\n";
  const auto& header = table.header_row();
  const auto& rows = table.data();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out += "      {";
    for (std::size_t c = 0; c < header.size(); ++c) {
      out += "\"" + json_escape(header[c]) + "\": " + json_cell(rows[r][c]);
      if (c + 1 < header.size()) out += ", ";
    }
    out += r + 1 < rows.size() ? "},\n" : "}\n";
  }
  out += "    ]}";
}

/// Tables emitted so far by this binary; the JSON file is rewritten on every
/// emit so benches need no explicit finalize hook.
inline std::vector<Table>& emitted_tables() {
  static std::vector<Table> tables;
  return tables;
}

inline void write_json(const BenchArgs& args) {
  std::string out = "{\n  \"params\": {\"trials\": " + std::to_string(args.trials) +
                    ", \"steps\": " + std::to_string(args.steps) +
                    ", \"seed\": " + std::to_string(args.seed) + "},\n  \"tables\": [\n";
  const auto& tables = emitted_tables();
  for (std::size_t i = 0; i < tables.size(); ++i) {
    append_table_json(out, tables[i]);
    out += i + 1 < tables.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  std::ofstream f(args.json, std::ios::trunc);
  if (!f) {
    std::cerr << "warning: cannot write --json file " << args.json << "\n";
    return;
  }
  f << out;
}

}  // namespace detail

inline void emit(const Table& table, const BenchArgs& args) {
  std::cout << table.to_ascii() << "\n";
  if (args.csv) {
    std::cout << table.to_csv() << "\n";
  }
  if (!args.json.empty()) {
    detail::emitted_tables().push_back(table);
    detail::write_json(args);
  }
}

}  // namespace topkmon::bench
