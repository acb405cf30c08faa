#include "model/oracle.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/assert.hpp"
#include "util/simd.hpp"

namespace topkmon {

std::vector<NodeId> Oracle::ranking(std::span<const Value> values) {
  std::vector<NodeId> ids(values.size());
  std::iota(ids.begin(), ids.end(), NodeId{0});
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    return ranks_above(values[a], a, values[b], b);
  });
  return ids;
}

OutputSet Oracle::top_k(std::span<const Value> values, std::size_t k) {
  TOPKMON_ASSERT(k <= values.size());
  auto ranked = ranking(values);
  OutputSet out(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(out.begin(), out.end());
  return out;
}

NodeId Oracle::kth_node(std::span<const Value> values, std::size_t k) {
  TOPKMON_ASSERT(k >= 1 && k <= values.size());
  // nth_element over ids would be O(n); ranking is O(n log n) but n is small
  // in simulation and this is oracle-side (free) code.
  return ranking(values)[k - 1];
}

Value Oracle::kth_value(std::span<const Value> values, std::size_t k) {
  return values[kth_node(values, k)];
}

std::vector<NodeId> Oracle::neighborhood(std::span<const Value> values, std::size_t k,
                                         double epsilon) {
  const Value vk = kth_value(values, k);
  std::vector<NodeId> out;
  for (NodeId i = 0; i < values.size(); ++i) {
    if (in_neighborhood(values[i], vk, epsilon)) out.push_back(i);
  }
  return out;
}

std::size_t Oracle::sigma(std::span<const Value> values, std::size_t k, double epsilon) {
  return neighborhood(values, k, epsilon).size();
}

std::size_t Oracle::sigma_sorted(std::span<const Value> sorted_desc, std::size_t k,
                                 double epsilon) {
  TOPKMON_ASSERT(k >= 1 && k <= sorted_desc.size());
  const Value vk = sorted_desc[k - 1];
  // K(t) membership (in_neighborhood) is a conjunction of two predicates,
  // each monotone along the descending order: "not clearly smaller" holds on
  // a prefix, "clearly larger" on a (possibly empty) head of that prefix.
  // The neighborhood is exactly the band between the two partition points,
  // and the ε-helpers keep every double comparison identical to sigma().
  const auto first_clearly_smaller =
      std::partition_point(sorted_desc.begin(), sorted_desc.end(),
                           [&](Value v) { return !clearly_smaller(v, vk, epsilon); });
  const auto first_not_clearly_larger =
      std::partition_point(sorted_desc.begin(), sorted_desc.end(),
                           [&](Value v) { return clearly_larger(v, vk, epsilon); });
  return static_cast<std::size_t>(first_clearly_smaller - first_not_clearly_larger);
}

Value Oracle::kth_largest(std::span<const Value> values, std::size_t k) {
  TOPKMON_ASSERT(k >= 1 && k <= values.size() && k <= kMaxScanK);
  // top[0..filled) holds the largest values seen so far, descending; the
  // admission test against top[k-1] is almost never true once the buffer is
  // warm, so the pass costs one predictable branch per element.
  Value top[kMaxScanK];
  std::size_t filled = 0;
  for (const Value v : values) {
    if (filled == k) {
      if (v <= top[k - 1]) continue;
      std::size_t p = k - 1;
      while (p > 0 && top[p - 1] < v) {
        top[p] = top[p - 1];
        --p;
      }
      top[p] = v;
      continue;
    }
    std::size_t p = filled++;
    while (p > 0 && top[p - 1] < v) {
      top[p] = top[p - 1];
      --p;
    }
    top[p] = v;
  }
  return top[k - 1];
}

std::size_t Oracle::sigma_scan(std::span<const Value> values, std::size_t k,
                               double epsilon) {
  const Value vk = kth_largest(values, k);
  const double vkd = static_cast<double>(vk);
  // #{v : ¬clearly_smaller} − #{v : clearly_larger}; both counts are
  // order-independent, and each lane evaluates the ε-helper expression
  // verbatim (clearly_smaller's bound is one double that every comparison
  // shares, clearly_larger's scale multiplies per lane).
  const std::size_t not_smaller =
      simd::count_f64_ge(values.data(), (1.0 - epsilon) * vkd, values.size());
  const std::size_t larger =
      simd::count_scaled_gt(values.data(), 1.0 - epsilon, vkd, values.size());
  return not_smaller - larger;
}

bool Oracle::output_valid(std::span<const Value> values, std::size_t k, double epsilon,
                          const OutputSet& output) {
  return explain_invalid(values, k, epsilon, output).empty();
}

std::string Oracle::explain_invalid(std::span<const Value> values, std::size_t k,
                                    double epsilon, const OutputSet& output) {
  std::ostringstream oss;
  if (output.size() != k) {
    oss << "output size " << output.size() << " != k = " << k;
    return oss.str();
  }
  std::vector<bool> in_out(values.size(), false);
  for (NodeId id : output) {
    if (id >= values.size()) {
      oss << "output contains out-of-range id " << id;
      return oss.str();
    }
    if (in_out[id]) {
      oss << "output contains duplicate id " << id;
      return oss.str();
    }
    in_out[id] = true;
  }
  const Value vk = kth_value(values, k);
  for (NodeId i = 0; i < values.size(); ++i) {
    if (clearly_larger(values[i], vk, epsilon) && !in_out[i]) {
      oss << "node " << i << " (value " << values[i] << ") is clearly larger than v_k="
          << vk << " but missing from output";
      return oss.str();
    }
    if (in_out[i] && !clearly_larger(values[i], vk, epsilon) &&
        !in_neighborhood(values[i], vk, epsilon)) {
      oss << "node " << i << " (value " << values[i]
          << ") is in the output but clearly smaller than v_k=" << vk;
      return oss.str();
    }
  }
  return "";
}

std::string Oracle::explain_kselect_invalid(std::span<const Value> values,
                                            std::size_t k, double epsilon,
                                            Value answer) {
  const Value vk = kth_value(values, k);
  if (in_neighborhood(answer, vk, epsilon)) return "";
  std::ostringstream oss;
  oss << "k-select answer " << answer << " outside the ε-neighborhood of v_" << k
      << " = " << vk << " (ε = " << epsilon << ")";
  return oss.str();
}

std::uint64_t Oracle::distinct_count(std::span<const Value> values,
                                     const BandLadder& ladder) {
  std::vector<Value> bands;
  bands.reserve(values.size());
  for (const Value v : values) {
    bands.push_back(ladder.band_lo(v));
  }
  std::sort(bands.begin(), bands.end());
  return static_cast<std::uint64_t>(
      std::unique(bands.begin(), bands.end()) - bands.begin());
}

std::uint64_t Oracle::distinct_count(std::span<const Value> values, double epsilon) {
  BandLadder ladder;
  ladder.reset(epsilon);
  return distinct_count(values, ladder);
}

std::uint64_t Oracle::count_above(std::span<const Value> values, Value threshold) {
  std::uint64_t count = 0;
  for (const Value v : values) {
    count += v > threshold ? 1 : 0;
  }
  return count;
}

}  // namespace topkmon
