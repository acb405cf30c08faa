// perfbench — the end-to-end benchmark of the monitor.
//
//   perfbench --workload net_quiet|sim_churn|engine_bursty --seed N
//             --seconds S --trace 0|1 [--spans-dir DIR]
//
// Prints a human-readable table, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics of the traced pass (--trace 1).
// Before the verification pass it prints the end-to-end metrics on a line
// starting with "measured: ", so a verification that aborts the process
// still leaves them behind for the caller.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string result_json(const perfbench::Report& r,
                        const std::vector<perfbench::Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(metrics[i].name) << ": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

void print_table(const char* title, const std::vector<perfbench::Metric>& metrics) {
  std::cout << "== " << title << " ==\n";
  for (const perfbench::Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %18.6f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::cout << line;
  }
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--spans-dir") {
      opts.spans_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload.empty()) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    const perfbench::Report r =
        perfbench::run_workload(opts, [](const perfbench::Report& partial) {
          std::cout << "measured: " << result_json(partial, partial.end_to_end) << std::endl;
        });
    std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << (opts.trace ? 1 : 0) << '\n';
    print_table("end to end (tracing off)", r.end_to_end);
    if (opts.trace) print_table("per layer (traced pass)", r.per_layer);
    for (const std::string& note : r.notes) std::cout << "  " << note << '\n';
    for (const perfbench::Check& c : r.checks) {
      std::cout << "  check " << (c.ok ? "ok  " : "FAIL") << "  " << c.name << ": " << c.detail
                << '\n';
    }
    std::cout << result_json(r, opts.trace ? r.per_layer : r.end_to_end) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
