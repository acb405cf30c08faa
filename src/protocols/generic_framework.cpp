#include "protocols/generic_framework.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace topkmon {

ProbeInfo probe_top_k_plus_1(SimContext& ctx) {
  TOPKMON_ASSERT_MSG(ctx.k() < ctx.n(), "protocols require k < n");
  ProbeInfo info;
  info.ranked = ctx.probe_top(ctx.k() + 1);
  TOPKMON_ASSERT(info.ranked.size() == ctx.k() + 1);
  info.top_ids.reserve(ctx.k());
  for (std::size_t i = 0; i < ctx.k(); ++i) {
    info.top_ids.push_back(info.ranked[i].id);
  }
  std::sort(info.top_ids.begin(), info.top_ids.end());
  info.vk = info.ranked[ctx.k() - 1].value;
  info.vk1 = info.ranked[ctx.k()].value;
  return info;
}

}  // namespace topkmon
