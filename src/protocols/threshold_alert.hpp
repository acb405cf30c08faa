// THRESHOLDALERT — continuous threshold monitoring (QueryKind::kThreshold):
// fire an alert while any node's value is strictly above a bound T, and keep
// the exact count of such nodes.
//
// This is the "are there nodes above a certain threshold" subtask the paper
// names under Corollary 3.2 (a one-shot EXISTENCE query there), maintained
// continuously via the `existence`/`generic_framework` seam:
//
//   * Filters partition the domain at T — nodes above hold (T, Δ], nodes at
//     or below hold [0, T] — so a node crossing the bound in either
//     direction is exactly a filter violation, and quiescence means the
//     server's above-set is exact.
//   * start() learns the initial above-set by EXISTENCE-enumeration
//     (O(|above| + 1) expected messages, Lemma 3.1) and installs the
//     partition with one broadcast; both filter shapes are derivable
//     node-side from the public bound.
//   * Steady state is the violation drain: flipping a node between sides is
//     one accounted report plus a node-side filter re-derivation.
//
// The bound T is per-query configuration (SimContext::threshold, wired from
// QuerySpec/SimConfig/RunSpec). alert_active()/above_count() are exact and
// deterministic; strict mode checks them against Oracle::count_above.
//
// This protocol serves no top-k output (output() stays empty) — it
// advertises exactly kThreshold through QueryCapabilities.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/protocol.hpp"

namespace topkmon {

class ThresholdAlertMonitor : public MonitoringProtocol, public QueryCapabilities {
 public:
  void start(SimContext& ctx) override;
  void on_step(SimContext& ctx) override;
  const OutputSet& output() const override { return output_; }
  const QueryCapabilities* capabilities() const override { return this; }
  std::string_view name() const override { return "threshold_alert"; }

  bool supports(QueryKind kind) const override {
    return kind == QueryKind::kThreshold;
  }
  bool alert_active() const override { return above_count_ > 0; }
  std::uint64_t above_count() const override { return above_count_; }

 private:
  Filter above_filter() const;
  Filter below_filter() const;

  Value bound_ = 0;
  std::vector<std::uint8_t> above_;  ///< server's side-of-the-bound view
  std::uint64_t above_count_ = 0;
  OutputSet output_;  ///< always empty: no top-k surface
};

}  // namespace topkmon
