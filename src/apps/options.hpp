// Declarative CLI options for the topkmon binaries (header-only).
//
// Before this layer, topk_sim and topk_engine each hand-rolled the same flag
// surface (stream knobs, fault knobs, telemetry paths, output toggles) with
// copy-pasted helpers and no --help beyond `--list`. Options binds each flag
// name to a field once — parse applies every binding, auto-generates the
// --help text from the declarations, and rejects unknown flags and
// malformed values instead of silently ignoring them. All four binaries
// (topk_sim, topk_engine, topk_coord, topk_node), the bench_e* tables
// (bench/bench_common.hpp) and the examples declare their surface through
// this class, so --faults / --window / --telemetry / --json mean the same
// thing everywhere.
//
// Usage:
//   StreamSpec spec;            // caller presets per-binary defaults
//   Options opts("topk_sim", "one protocol on one workload");
//   add_stream_options(opts, spec);
//   opts.add_uint("steps", &steps, "run length in time steps");
//   switch (opts.parse(argc, argv)) {
//     case Options::ParseResult::kHelp: return 0;
//     case Options::ParseResult::kError: return 1;
//     case Options::ParseResult::kOk: break;
//   }
//   finalize_stream_options(opts, spec);   // n-derived defaults
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/query.hpp"
#include "faults/registry.hpp"
#include "protocols/registry.hpp"
#include "sim/query_kind.hpp"
#include "streams/registry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace topkmon {

class Options {
 public:
  Options(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  enum class ParseResult { kOk, kHelp, kError };

  // ---- bindings (flag name without the leading "--") ----------------------

  Options& add_string(const std::string& name, std::string* out,
                      const std::string& help) {
    binds_.push_back({name, Kind::kString, out, help, *out});
    return *this;
  }
  Options& add_uint(const std::string& name, std::uint64_t* out,
                    const std::string& help) {
    binds_.push_back({name, Kind::kUint64, out, help, std::to_string(*out)});
    return *this;
  }
  Options& add_size(const std::string& name, std::size_t* out,
                    const std::string& help) {
    binds_.push_back({name, Kind::kSize, out, help, std::to_string(*out)});
    return *this;
  }
  Options& add_int(const std::string& name, std::int64_t* out,
                   const std::string& help) {
    binds_.push_back({name, Kind::kInt64, out, help, std::to_string(*out)});
    return *this;
  }
  Options& add_double(const std::string& name, double* out, const std::string& help) {
    binds_.push_back({name, Kind::kDouble, out, help, format_double(*out, 4)});
    return *this;
  }
  Options& add_bool(const std::string& name, bool* out, const std::string& help) {
    binds_.push_back({name, Kind::kBool, out, help, *out ? "true" : "false"});
    return *this;
  }
  /// --name[=PATH]: "" when absent, `default_path` for the bare flag, else
  /// the given value (the optional-path semantics of --telemetry).
  Options& add_optional_path(const std::string& name, std::string* out,
                             const std::string& default_path,
                             const std::string& help) {
    binds_.push_back({name, Kind::kOptionalPath, out, help, default_path});
    return *this;
  }
  /// Declared-only: accepted and shown in --help, parsed elsewhere (e.g.
  /// fault_config_from_flags reads the fault group off flags() directly).
  Options& note(const std::string& name, const std::string& help,
                const std::string& default_desc = "") {
    binds_.push_back({name, Kind::kNote, nullptr, help, default_desc});
    return *this;
  }

  // ---- parse --------------------------------------------------------------

  ParseResult parse(int argc, char** argv, std::ostream& out = std::cerr) {
    flags_ = Flags(argc, argv);
    if (flags_.has("help")) {
      print_help(out);
      return ParseResult::kHelp;
    }
    if (flags_.has("list")) {
      print_registries(out, flags_.get_string("list", ""));
      return ParseResult::kHelp;
    }
    for (const std::string& given : flags_.names()) {
      if (!known(given)) {
        out << program_ << ": unknown flag --" << given << " (see --help)\n";
        return ParseResult::kError;
      }
    }
    try {
      for (const Bind& b : binds_) apply(b);
    } catch (const std::invalid_argument& e) {  // malformed number or boolean
      out << program_ << ": " << e.what() << "\n";
      return ParseResult::kError;
    }
    return ParseResult::kOk;
  }

  /// parse(), exiting the process unless it returns kOk: status 0 after
  /// --help/--list, 2 on an unknown flag or a malformed value — the
  /// convention of the bench_e* tables and the examples.
  void parse_or_exit(int argc, char** argv) {
    switch (parse(argc, argv)) {
      case ParseResult::kHelp: std::exit(0);
      case ParseResult::kError: std::exit(2);
      case ParseResult::kOk: break;
    }
  }

  /// The underlying parsed flags — for groups with bespoke parsing (faults).
  const Flags& flags() const { return flags_; }

  void print_help(std::ostream& out) const {
    out << program_ << " — " << summary_ << "\n\nflags:\n";
    for (const Bind& b : binds_) {
      std::string left = "  --" + b.name;
      if (b.kind == Kind::kOptionalPath) left += "[=PATH]";
      if (left.size() < 26) left.resize(26, ' ');
      out << left << b.help;
      if (!b.default_desc.empty()) out << " [" << b.default_desc << "]";
      out << "\n";
    }
    out << "  --list[=GROUP]          registered protocols, streams, faults, queries\n"
        << "  --help                  this text\n";
  }

  static void print_registries(std::ostream& out, const std::string& what = "") {
    if (what == "queries") {
      out << "queries:  ";
      for (const auto& q : query_kind_names()) out << " " << q;
      out << "\n";
      return;
    }
    out << "protocols:";
    for (const auto& p : protocol_names()) out << " " << p;
    out << "\nstreams:  ";
    for (const auto& s : stream_kinds()) out << " " << s;
    out << "\nfaults:   ";
    for (const auto& f : fault_preset_names()) out << " " << f;
    out << "\nqueries:  ";
    for (const auto& q : query_kind_names()) out << " " << q;
    out << "\n";
  }

 private:
  enum class Kind {
    kString,
    kUint64,
    kSize,
    kInt64,
    kDouble,
    kBool,
    kOptionalPath,
    kNote
  };
  struct Bind {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string default_desc;
  };

  bool known(const std::string& name) const {
    for (const Bind& b : binds_) {
      if (b.name == name) return true;
    }
    return false;
  }

  void apply(const Bind& b) {
    switch (b.kind) {
      case Kind::kString: {
        auto* t = static_cast<std::string*>(b.target);
        *t = flags_.get_string(b.name, *t);
        break;
      }
      case Kind::kUint64: {
        auto* t = static_cast<std::uint64_t*>(b.target);
        *t = flags_.get_uint(b.name, *t);
        break;
      }
      case Kind::kSize: {
        auto* t = static_cast<std::size_t*>(b.target);
        *t = static_cast<std::size_t>(flags_.get_uint(b.name, *t));
        break;
      }
      case Kind::kInt64: {
        auto* t = static_cast<std::int64_t*>(b.target);
        *t = flags_.get_int(b.name, *t);
        break;
      }
      case Kind::kDouble: {
        auto* t = static_cast<double*>(b.target);
        *t = flags_.get_double(b.name, *t);
        break;
      }
      case Kind::kBool: {
        auto* t = static_cast<bool*>(b.target);
        *t = flags_.get_bool(b.name, *t);
        break;
      }
      case Kind::kOptionalPath: {
        auto* t = static_cast<std::string*>(b.target);
        if (!flags_.has(b.name)) {
          *t = "";
        } else {
          const std::string v = flags_.get_string(b.name, b.default_desc);
          *t = (v.empty() || v == "true") ? b.default_desc : v;
        }
        break;
      }
      case Kind::kNote:
        break;
    }
  }

  std::string program_;
  std::string summary_;
  std::vector<Bind> binds_;
  Flags flags_{0, nullptr};
};

// ---------------------------------------------------------------- groups

/// The shared workload surface. Preset `spec` with the binary's defaults
/// first; call finalize_stream_options after parse for n-derived defaults.
inline void add_stream_options(Options& o, StreamSpec& spec) {
  o.add_string("stream", &spec.kind, "stream generator kind");
  o.add_size("n", &spec.n, "fleet size (number of nodes)");
  o.add_size("k", &spec.k, "top-k positions to monitor");
  o.add_double("eps", &spec.epsilon, "approximation parameter ε");
  o.add_uint("delta", &spec.delta, "value scale Δ");
  o.add_size("sigma", &spec.sigma, "neighborhood size for dense/adversary kinds");
  o.add_uint("walk-step", &spec.walk_step, "random-walk step size");
  o.add_double("churn", &spec.churn, "oscillator churn fraction");
  o.add_double("drift", &spec.drift, "oscillating band drift per step");
  o.add_string("trace", &spec.trace_path, "trace file for --stream trace_file");
}

/// n-derived defaults the flag layer cannot express: sigma defaults to
/// n / `sigma_divisor` when not given explicitly.
inline void finalize_stream_options(const Options& o, StreamSpec& spec,
                                    std::size_t sigma_divisor) {
  if (!o.flags().has("sigma")) spec.sigma = spec.n / sigma_divisor;
}

/// The shared fault surface (--faults preset + individual overrides). The
/// flags are declared here for --help and unknown-flag checking; the actual
/// config comes from fault_config_from_flags(o.flags(), horizon) after
/// parse, so the preset/override semantics stay in exactly one place
/// (faults/registry.cpp).
inline void add_fault_options(Options& o) {
  o.note("faults", "fault preset (none, churn, stragglers, lossy, flaky, datacenter)",
         "none");
  o.note("churn-rate", "membership toggles per step");
  o.note("straggler-frac", "fraction of nodes lagging the stream");
  o.note("straggler-delay", "max straggler delay (steps)");
  o.note("loss", "per-message drop probability");
  o.note("fault-seed", "fault-trace seed", "1");
}

/// The shared declarative query surface: every binary that runs monitoring
/// queries accepts the repeatable `--query KIND[:key=value,...]` flag (kinds
/// per `--list queries`; parsed by parse_query_spec in engine/query.hpp) plus
/// the mixed-window toggle that cycles window lengths across the final list.
struct QueryListOptions {
  bool mixed_windows = false;  ///< cycle {inf, 16, 64, 256} across queries
};

inline void add_query_options(Options& o, QueryListOptions& q) {
  o.note("query",
         "repeatable query spec KIND[:k=..,eps=..,window=..,bound=..,proto=..,"
         "seed=..,strict=..,label=..]; kinds per --list queries");
  o.add_bool("mixed-windows", &q.mixed_windows,
             "cycle window lengths across queries");
}

/// Builds an engine's query list: the parsed `--query` specs (or `fallback`
/// when none were given) cycled up to `q_count` queries; q_count = 0 means
/// "one per --query spec". --mixed-windows overwrites windows with the
/// canonical cycle, matching the engine CLI's historical mixed-window runs.
inline std::vector<QuerySpec> build_query_list(const Flags& flags,
                                               const QueryListOptions& qopts,
                                               std::size_t q_count,
                                               const QuerySpec& fallback) {
  std::vector<QuerySpec> base;
  for (const std::string& raw : flags.get_all("query")) {
    base.push_back(parse_query_spec(raw));
  }
  if (base.empty()) base.push_back(fallback);
  if (q_count == 0) q_count = base.size();

  const std::size_t window_cycle[] = {kInfiniteWindow, 16, 64, 256};
  std::vector<QuerySpec> out;
  out.reserve(q_count);
  for (std::size_t i = 0; i < q_count; ++i) {
    QuerySpec qs = base[i % base.size()];
    if (qopts.mixed_windows) {
      qs.window = window_cycle[i % (sizeof(window_cycle) / sizeof(*window_cycle))];
    }
    out.push_back(std::move(qs));
  }
  return out;
}

/// Single-query binaries (topk_sim, topk_coord): the one `--query` spec, or
/// nullopt when the flag is absent. Throws if given more than once.
inline std::optional<QuerySpec> single_query_option(const Flags& flags) {
  const std::vector<std::string> raw = flags.get_all("query");
  if (raw.empty()) return std::nullopt;
  if (raw.size() > 1) {
    throw std::runtime_error("this binary serves one query; give --query once");
  }
  return parse_query_spec(raw.front());
}

/// The TCP port `text` given for `--flag` (topk_coord, topk_node): all of it
/// must be decimal digits naming a port in [min_port, 65535]. Throws
/// std::invalid_argument naming the flag and the value otherwise.
inline std::uint16_t parse_port(const std::string& flag, const std::string& text,
                                unsigned min_port) {
  const bool digits = !text.empty() && text.size() <= 5 &&
                      text.find_first_not_of("0123456789") == std::string::npos;
  const unsigned long port = digits ? std::stoul(text) : 0;
  if (!digits || port < min_port || port > 65535) {
    throw std::invalid_argument("invalid port '" + text + "' for --" + flag +
                                " (expected " + std::to_string(min_port) +
                                "..65535)");
  }
  return static_cast<std::uint16_t>(port);
}

/// The shared export/rendering surface.
struct OutputOptions {
  std::string telemetry_json;
  std::string telemetry_prom;
  bool markdown = false;
  bool csv = false;
  bool json = false;
};

inline void add_output_options(Options& o, OutputOptions& out) {
  o.add_optional_path("telemetry", &out.telemetry_json, "telemetry.json",
                      "export telemetry JSON");
  o.add_optional_path("telemetry-prom", &out.telemetry_prom, "telemetry.prom",
                      "export Prometheus exposition");
  o.add_bool("markdown", &out.markdown, "render tables as markdown");
  o.add_bool("csv", &out.csv, "additionally dump tables as CSV");
  o.add_bool("json", &out.json, "render tables as JSON");
}

/// Renders `t` per the shared --markdown/--json/--csv semantics.
inline void print_table(const Table& t, const OutputOptions& out,
                        std::ostream& os = std::cout) {
  if (out.json) {
    os << t.to_json();
  } else if (out.markdown) {
    os << t.to_markdown();
  } else {
    os << t.to_ascii();
  }
  if (out.csv) os << t.to_csv();
}

}  // namespace topkmon
