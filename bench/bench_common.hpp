// Shared glue for the experiment-table binaries.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/options.hpp"
#include "bench_support/runner.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace topkmon::bench {

/// Common CLI, declared through Options (apps/options.hpp): --trials,
/// --steps, --seed, --csv (emit CSV after the table), --json=<path> (append
/// every emitted table to a machine-readable JSON file for the perf
/// trajectory), --threads (sweep pool size; 0 = auto). Benches that profile
/// their cells also take --telemetry[=<path>] (attach the per-phase step
/// profiler to every cell and write the telemetry JSON document —
/// src/telemetry — at exit; the scoped timers run ONLY with this flag,
/// keeping default bench runs perf-identical to a telemetry-less build).
/// --help prints the flags and exits 0. Any other flag, or a malformed
/// value, is a typo: the bench names it and exits 2 instead of silently
/// running the defaults.
struct BenchArgs {
  std::size_t trials = 5;
  TimeStep steps = 600;
  std::uint64_t seed = 42;
  bool csv = false;
  std::string json;
  std::size_t threads = 0;
  std::string telemetry;  ///< telemetry JSON path; empty = off

  /// `with_telemetry` declares --telemetry. Only the benches that write the
  /// telemetry document pass true; on every other bench the flag is an
  /// unknown flag (exit 2) rather than silently ignored.
  static BenchArgs parse(int argc, char** argv, bool with_telemetry = false) {
    BenchArgs a;
    Options opts(argc > 0 ? argv[0] : "bench", "experiment table");
    opts.add_size("trials", &a.trials, "independent trials per cell");
    opts.add_int("steps", &a.steps, "time steps per trial");
    opts.add_uint("seed", &a.seed, "base seed");
    opts.add_bool("csv", &a.csv, "also print each table as CSV");
    opts.add_string("json", &a.json, "write every table to this JSON file");
    opts.add_size("threads", &a.threads, "sweep pool size (0 = auto)");
    if (with_telemetry) {
      opts.add_optional_path("telemetry", &a.telemetry, "telemetry.json",
                             "profile every cell and write telemetry JSON");
    }
    opts.parse_or_exit(argc, argv);
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
