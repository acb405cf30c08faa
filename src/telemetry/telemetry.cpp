#include "telemetry/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/table.hpp"

namespace topkmon::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

/// Buckets past the last nonzero carry no information; trim them so the
/// documents stay readable (consumers index what is present).
template <typename GetBucket>
void append_buckets(std::string& out, std::size_t n, GetBucket get) {
  std::size_t last = 0;
  for (std::size_t b = 0; b < n; ++b) {
    if (get(b) != 0) last = b + 1;
  }
  out += "[";
  for (std::size_t b = 0; b < last; ++b) {
    if (b != 0) out += ", ";
    append_u64(out, get(b));
  }
  out += "]";
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted names
/// map dots (and anything else) to underscores under a topkmon_ prefix.
std::string prom_name(std::string_view name) {
  std::string out = "topkmon_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string to_json(const TelemetrySink& sink, std::string_view source) {
  const MetricsRegistry& reg = sink.registry();
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"";
  out += kTelemetrySchema;
  out += "\",\n  \"source\": \"" + json_escape(source) + "\",\n";
  out += "  \"telemetry_enabled\": ";
  out += kTelemetryEnabled ? "true" : "false";
  out += ",\n  \"metrics\": [\n";
  for (MetricId id = 0; id < reg.size(); ++id) {
    out += "    {\"name\": \"" + json_escape(reg.name(id)) + "\", \"kind\": \"";
    out += to_string(reg.kind(id));
    out += "\", ";
    if (reg.kind(id) == MetricKind::kHistogram) {
      out += "\"count\": ";
      append_u64(out, reg.hist_count(id));
      out += ", \"sum\": ";
      append_u64(out, reg.hist_sum(id));
      out += ", \"buckets\": ";
      append_buckets(out, kHistogramBuckets,
                     [&](std::size_t b) { return reg.hist_bucket(id, b); });
    } else {
      out += "\"value\": ";
      append_u64(out, reg.value(id));
    }
    out += id + 1 < reg.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";

  const StepProfiler merged = sink.merged_profiler();
  out += "  \"profiler\": {\"bucket_scale\": \"log2_ns\", \"phases\": [\n";
  bool first = true;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    if (merged.calls(phase) == 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    {\"phase\": \"";
    out += phase_name(phase);
    out += "\", \"total_ns\": ";
    append_u64(out, merged.total_ns(phase));
    out += ", \"calls\": ";
    append_u64(out, merged.calls(phase));
    out += ", \"latency_buckets\": ";
    const auto hist = merged.latency_histogram(phase);
    append_buckets(out, hist.size(), [&](std::size_t b) { return hist[b]; });
    out += "}";
  }
  out += "\n  ]},\n";

  const TimeseriesRecorder& ts = sink.timeseries();
  out += "  \"timeseries\": {\"stride\": ";
  append_u64(out, ts.stride());
  out += ", \"channels\": [";
  for (std::size_t c = 0; c < ts.channel_count(); ++c) {
    if (c != 0) out += ", ";
    out += "\"" + json_escape(ts.channel_names()[c]) + "\"";
  }
  out += "], \"rows\": [\n";
  for (std::size_t r = 0; r < ts.size(); ++r) {
    out += "    [";
    append_u64(out, ts.step_at(r));
    for (std::size_t c = 0; c < ts.channel_count(); ++c) {
      out += ", ";
      append_u64(out, ts.value_at(r, c));
    }
    out += r + 1 < ts.size() ? "],\n" : "]\n";
  }
  out += "  ]}\n}\n";
  return out;
}

std::string to_prometheus(const TelemetrySink& sink, std::string_view source) {
  const MetricsRegistry& reg = sink.registry();
  const std::string labels = "{source=\"" + std::string(source) + "\"}";
  std::string out;
  out.reserve(4096);
  for (MetricId id = 0; id < reg.size(); ++id) {
    const std::string name = prom_name(reg.name(id));
    if (reg.kind(id) == MetricKind::kHistogram) {
      out += "# TYPE " + name + " histogram\n";
      // Log2 buckets: bucket b counts v with bit_width(v) == b, i.e. the
      // cumulative count through bucket b is the count of v ≤ 2^b - 1.
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t c = reg.hist_bucket(id, b);
        if (c == 0 && b != 0) continue;
        cum += c;
        out += name + "_bucket{source=\"" + std::string(source) + "\", le=\"";
        append_u64(out, (std::uint64_t{1} << b) - 1);
        out += "\"} ";
        append_u64(out, cum);
        out += "\n";
      }
      out += name + "_bucket{source=\"" + std::string(source) + "\", le=\"+Inf\"} ";
      append_u64(out, reg.hist_count(id));
      out += "\n" + name + "_sum" + labels + " ";
      append_u64(out, reg.hist_sum(id));
      out += "\n" + name + "_count" + labels + " ";
      append_u64(out, reg.hist_count(id));
      out += "\n";
    } else {
      out += "# TYPE " + name +
             (reg.kind(id) == MetricKind::kCounter ? " counter\n" : " gauge\n");
      out += name + labels + " ";
      append_u64(out, reg.value(id));
      out += "\n";
    }
  }

  const StepProfiler merged = sink.merged_profiler();
  bool any = false;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (merged.calls(static_cast<Phase>(p)) != 0) any = true;
  }
  if (any) {
    out += "# TYPE topkmon_phase_total_ns counter\n";
    out += "# TYPE topkmon_phase_calls counter\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<Phase>(p);
      if (merged.calls(phase) == 0) continue;
      const std::string plabels = "{source=\"" + std::string(source) +
                                  "\", phase=\"" + phase_name(phase) + "\"}";
      out += "topkmon_phase_total_ns" + plabels + " ";
      append_u64(out, merged.total_ns(phase));
      out += "\ntopkmon_phase_calls" + plabels + " ";
      append_u64(out, merged.calls(phase));
      out += "\n";
    }
  }
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::cerr << "warning: cannot write telemetry file " << path << "\n";
    return false;
  }
  f << content;
  return true;
}

}  // namespace topkmon::telemetry
