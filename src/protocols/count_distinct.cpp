#include "protocols/count_distinct.hpp"

#include "protocols/generic_framework.hpp"
#include "util/assert.hpp"

namespace topkmon {

Filter CountDistinctMonitor::band_filter(Value v) const {
  // Bands are half-open; filters are closed intervals on the integer grid.
  return Filter{static_cast<double>(ladder_.band_lo(v)),
                static_cast<double>(ladder_.band_hi(v) - 1)};
}

void CountDistinctMonitor::start(SimContext& ctx) {
  ladder_.reset(ctx.epsilon());
  band_lo_.assign(ctx.n(), 0);
  sketch_.clear();
  output_.clear();

  // Deterministic seed collect (n messages, no RNG), folded into per-stripe
  // shard sketches and merged — the combining step a sharded data plane
  // performs; merge order cannot matter (commutative/associative).
  const auto reports = collect_all_deterministic(ctx);
  std::vector<DistinctSketch> stripes((ctx.n() + kSketchStripe - 1) / kSketchStripe);
  for (const auto& [id, value] : reports) {
    band_lo_[id] = ladder_.band_lo(value);
    stripes[id / kSketchStripe].add(band_lo_[id]);
  }
  for (const DistinctSketch& stripe : stripes) {
    sketch_.merge(stripe);
  }

  // One broadcast: every node derives the filter of its own band locally
  // from the ladder (a pure function of ε) — nothing node-specific travels.
  ctx.broadcast_filters([this](const Node& node) {
    return band_filter(node.value());
  });
}

void CountDistinctMonitor::on_step(SimContext& ctx) {
  drain_violations(ctx, [&](NodeId id, Value value, Violation side) {
    (void)side;
    // The node left its band; the accounted violation report carried the new
    // value, the node re-derives its own filter from it (zero server
    // messages), and the sketch moves one occupancy between bands.
    sketch_.remove(band_lo_[id]);
    band_lo_[id] = ladder_.band_lo(value);
    sketch_.add(band_lo_[id]);
    ctx.set_filter_free(id, band_filter(value));
  });
}

}  // namespace topkmon
