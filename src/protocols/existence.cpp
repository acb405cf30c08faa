#include "protocols/existence.hpp"

#include "util/math.hpp"

namespace topkmon {

std::uint64_t ExistenceProtocol::max_rounds(std::size_t n) {
  if (n <= 1) return 1;
  return static_cast<std::uint64_t>(ilog2_ceil(n)) + 1;
}

ExistenceResult ExistenceProtocol::run(const std::vector<bool>& bits, Rng& rng) {
  return run(
      bits.size(), [&](NodeId i) { return static_cast<bool>(bits[i]); },
      [](NodeId i) { return static_cast<Value>(i); }, rng);
}

}  // namespace topkmon
