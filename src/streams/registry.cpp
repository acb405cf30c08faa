#include "streams/registry.hpp"

#include <stdexcept>
#include <string>

#include "streams/lb_adversary.hpp"
#include "streams/oscillating.hpp"
#include "streams/phase_torture.hpp"
#include "streams/random_walk.hpp"
#include "streams/sine_noise.hpp"
#include "streams/trace_file.hpp"
#include "streams/uniform.hpp"
#include "streams/zipf_bursty.hpp"

namespace topkmon {

std::unique_ptr<StreamGenerator> make_stream(const StreamSpec& spec) {
  if (spec.kind == "uniform") {
    return std::make_unique<UniformStream>(UniformStreamConfig{spec.n, 0, spec.delta});
  }
  if (spec.kind == "random_walk") {
    RandomWalkConfig cfg;
    cfg.n = spec.n;
    cfg.lo = 0;
    cfg.hi = spec.delta;
    cfg.max_step = spec.walk_step;
    return std::make_unique<RandomWalkStream>(cfg);
  }
  if (spec.kind == "oscillating") {
    OscillatingConfig cfg;
    cfg.n = spec.n;
    cfg.k = spec.k;
    cfg.epsilon = spec.epsilon;
    cfg.sigma = spec.sigma;
    cfg.band_top = spec.delta / 8 < 16 ? 16 : spec.delta / 8;
    cfg.churn = spec.churn;
    cfg.drift = spec.drift;
    return std::make_unique<OscillatingStream>(cfg);
  }
  if (spec.kind == "zipf_bursty") {
    ZipfBurstyConfig cfg;
    cfg.n = spec.n;
    cfg.base_scale = spec.delta;
    return std::make_unique<ZipfBurstyStream>(cfg);
  }
  if (spec.kind == "sine_noise") {
    SineNoiseConfig cfg;
    cfg.n = spec.n;
    cfg.mid = spec.delta / 2 < 256 ? 256 : spec.delta / 2;
    cfg.amplitude = cfg.mid / 4;
    cfg.noise = cfg.mid / 512 < 1 ? 1 : cfg.mid / 512;
    return std::make_unique<SineNoiseStream>(cfg);
  }
  if (spec.kind == "lb_adversary") {
    LbAdversaryConfig cfg;
    cfg.n = spec.n;
    cfg.k = spec.k;
    cfg.epsilon = spec.epsilon;
    cfg.sigma = spec.sigma;
    cfg.y0 = spec.delta;
    return std::make_unique<LbAdversaryStream>(cfg);
  }
  if (spec.kind == "phase_torture") {
    PhaseTortureConfig cfg;
    cfg.n = spec.n;
    cfg.k = spec.k;
    cfg.top = spec.delta;
    // The climber must start at ≥ 2 and 64× below the anchors. Keep the
    // default start where that holds; for a small Δ take the largest legal
    // start instead.
    if (cfg.top <= 64 * cfg.climber_start) {
      if (cfg.top <= 64 * 2) {
        throw std::runtime_error("phase_torture needs delta > 128, got " +
                                 std::to_string(spec.delta));
      }
      cfg.climber_start = (cfg.top - 1) / 64;
    }
    return std::make_unique<PhaseTortureStream>(cfg);
  }
  if (spec.kind == "trace_file") {
    return std::make_unique<TraceFileStream>(spec.trace_path);
  }
  throw std::runtime_error("unknown stream kind: " + spec.kind);
}

std::vector<std::string> stream_kinds() {
  return {"uniform",    "random_walk",  "oscillating",   "zipf_bursty",
          "sine_noise", "lb_adversary", "phase_torture", "trace_file"};
}

}  // namespace topkmon
