#include "engine/stats.hpp"

#include <sstream>

namespace topkmon {

std::string describe(const QuerySpec& spec) {
  if (!spec.label.empty()) return spec.label;
  std::ostringstream oss;
  // The protocol name already names the query kind (the registry maps one to
  // one for the defaults), so the historical "protocol k=.. eps=.." shape
  // stays stable; only threshold queries append their bound.
  oss << spec.protocol << " k=" << spec.k << " eps=" << format_double(spec.epsilon, 3);
  if (spec.window != kInfiniteWindow) {
    oss << " W=" << spec.window;
  }
  if (spec.kind == QueryKind::kThreshold) {
    oss << " T=" << spec.threshold;
  }
  return oss.str();
}

Table EngineStats::per_query_table(const std::string& title) const {
  // The "W" column appears only when some query actually windows, keeping
  // unwindowed serving reports byte-identical to the pre-window engine.
  Table t(title);
  std::vector<std::string> header{"query", "label", "k", "eps"};
  if (windowed) header.push_back("W");
  for (const char* col : {"messages", "msgs/step", "max rounds", "output F(T)"}) {
    header.push_back(col);
  }
  t.header(header);
  for (const auto& q : queries) {
    std::string out = "{";
    for (std::size_t i = 0; i < q.output.size(); ++i) {
      out += std::to_string(q.output[i]) + (i + 1 < q.output.size() ? "," : "");
    }
    out += "}";
    const QuerySpec& spec = q.spec;
    std::vector<std::string> row{std::to_string(q.handle), spec.label,
                                 std::to_string(spec.k), format_double(spec.epsilon, 3)};
    if (windowed) {
      row.push_back(spec.window == kInfiniteWindow ? "inf" : std::to_string(spec.window));
    }
    row.push_back(format_count(q.run.messages));
    row.push_back(format_double(q.run.messages_per_step, 2));
    row.push_back(format_count(q.run.max_rounds_per_step));
    row.push_back(out);
    t.add_row(row);
  }
  return t;
}

Table EngineStats::summary_table(const std::string& title) const {
  Table t(title);
  t.header({"metric", "value"});
  t.add_row({"queries", format_count(queries.size())});
  t.add_row({"steps", format_count(steps)});
  t.add_row({"query messages", format_count(query_messages)});
  t.add_row({"shared probe messages", format_count(shared_probe_messages)});
  t.add_row({"total messages", format_count(messages)});
  t.add_row({"shared probe calls", format_count(probe_calls)});
  t.add_row({"shared probe ranks computed", format_count(probe_ranks_computed)});
  t.add_row({"messages lost (links)", format_count(messages_lost)});
  t.add_row({"stale reads (fleet)", format_count(stale_reads)});
  t.add_row({"recovery rounds", format_count(recovery_rounds)});
  if (windowed) {
    t.add_row({"window expirations (fleet)", format_count(window_expirations)});
  }
  t.add_row({"elapsed (s)", format_double(elapsed_sec, 3)});
  t.add_row({"steps / s", format_double(steps_per_sec, 1)});
  t.add_row({"query-steps / s", format_double(query_steps_per_sec, 1)});
  return t;
}

}  // namespace topkmon
