#include "engine/shard.hpp"

#include "util/assert.hpp"

namespace topkmon {

void EngineShard::add(QueryHandle handle, std::size_t window,
                      std::unique_ptr<Simulator> sim) {
  TOPKMON_ASSERT(sim != nullptr);
  handles_.push_back(handle);
  windows_.push_back(window);
  sims_.push_back(std::move(sim));
}

void EngineShard::set_profiler(telemetry::StepProfiler* prof) {
  profiler_ = prof;
  for (auto& sim : sims_) {
    sim->set_profiler(prof);
  }
}

void EngineShard::advance(StepSnapshot& snapshot) {
  TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kShardAdvance);
  if (views_.size() != sims_.size()) {
    // First step: resolve each query's window to its stable view pointer.
    views_.resize(sims_.size());
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      views_[i] = snapshot.view(windows_[i]);
    }
  }
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    Simulator& sim = *sims_[i];
    StepFacts facts;
    facts.window_expirations = views_[i]->expirations();
    {
      // σ(t) is a pure function of the view; the snapshot memoizes it per
      // step per distinct (W, k, ε) instead of per query.
      TOPKMON_PHASE_SCOPE(profiler_, telemetry::Phase::kSigma);
      facts.sigma = snapshot.sigma(windows_[i], sim.config().k, sim.config().epsilon);
    }
    sim.step_on(views_[i]->current(), facts);
  }
}

}  // namespace topkmon
