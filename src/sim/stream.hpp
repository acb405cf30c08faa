// Stream generator interface.
//
// Generators produce the observation vector for each time step. The paper's
// adversary model is *adaptive*: it knows the algorithm's code, the state of
// every node and the server, and past random outcomes. `AdversaryView`
// exposes exactly that — current values, current filters, and the server's
// current output — read-only; adversarial generators (Theorem 5.1) use it,
// benign synthetic workloads ignore it.
#pragma once

#include <memory>
#include <string_view>

#include "model/filter.hpp"
#include "model/types.hpp"
#include "sim/node.hpp"
#include "util/rng.hpp"

namespace topkmon {

struct AdversaryView {
  NodeRange nodes;          ///< values + filters as of *before* this step
  const OutputSet* output;  ///< server's current output (never null)
  std::size_t k;
  double epsilon;
};

class StreamGenerator {
 public:
  virtual ~StreamGenerator() = default;

  /// Number of nodes this generator drives.
  virtual std::size_t n() const = 0;

  /// Fills the t = 0 observation vector. `out` is pre-sized to n().
  virtual void init(ValueVector& out, Rng& rng) = 0;

  /// Fills the observation vector for step t ≥ 1. `out` holds the previous
  /// step's values on entry (generators may update in place).
  virtual void step(TimeStep t, const AdversaryView& view, ValueVector& out,
                    Rng& rng) = 0;

  virtual std::string_view name() const = 0;

  /// Fresh, state-reset copy for independent trials.
  virtual std::unique_ptr<StreamGenerator> clone() const = 0;
};

}  // namespace topkmon
