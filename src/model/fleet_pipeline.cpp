#include "model/fleet_pipeline.hpp"

#include "util/assert.hpp"

namespace topkmon {

FleetPipeline::FleetPipeline(std::size_t n, FleetSchedulePtr faults,
                             std::size_t window)
    : fleet_(n, window) {
  if (faults) {
    TOPKMON_ASSERT_MSG(faults->n() == n, "fault schedule sized for wrong fleet");
    injector_ = std::make_unique<FaultInjector>(std::move(faults));
  }
}

FleetPipeline::FleetPipeline(std::unique_ptr<StreamGenerator> gen,
                             std::uint64_t seed, FleetSchedulePtr faults,
                             std::size_t window)
    : FleetPipeline(gen ? gen->n() : 0, std::move(faults), window) {
  gen_ = std::move(gen);
  gen_rng_ = Rng::derive(seed, /*stream_id=*/0x5EED);
}

const ValueVector& FleetPipeline::step(TimeStep t, const AdversaryView& view,
                                       telemetry::StepProfiler* prof) {
  TOPKMON_ASSERT_MSG(gen_ != nullptr, "pipeline without generator needs the true vector");
  ValueVector& staging = fleet_.staging();
  {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kGenerator);
    if (t == 0) {
      gen_->init(staging, gen_rng_);
    } else {
      gen_->step(t, view, staging, gen_rng_);
    }
  }
  return step(t, staging, prof);
}

const ValueVector& FleetPipeline::step(TimeStep t, const ValueVector& truth,
                                       telemetry::StepProfiler* prof) {
  effective_ = &truth;
  if (injector_) {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kFaultInject);
    effective_ = &injector_->transform(t, truth, fleet_);
  }
  monitored_ = effective_;
  if (WindowedValueModel* wm = fleet_.window()) {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kWindowMerge);
    monitored_ = &wm->push(t, *effective_);
  }
  return *monitored_;
}

std::uint64_t FleetPipeline::stale_reads(std::size_t lo, std::size_t hi) const {
  if (!injector_) return 0;
  const auto flags = fleet_.fault_flags();
  TOPKMON_ASSERT(lo <= hi && hi <= flags.size());
  std::uint64_t stale = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    stale += (flags[i] & kFaultStale) ? 1 : 0;
  }
  return stale;
}

}  // namespace topkmon
