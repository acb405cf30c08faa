#include "model/fleet_pipeline.hpp"

#include "util/assert.hpp"

namespace topkmon {

FleetPipeline::FleetPipeline(std::size_t n, FleetSchedulePtr faults,
                             std::size_t window)
    : n_(n) {
  TOPKMON_ASSERT(n > 0);
  if (faults) {
    TOPKMON_ASSERT_MSG(faults->n() == n, "fault schedule sized for wrong fleet");
    injector_ = std::make_unique<FaultInjector>(std::move(faults));
  }
  if (window != kInfiniteWindow) {
    window_ = std::make_unique<WindowedValueModel>(n, window);
  }
}

FleetPipeline::FleetPipeline(std::unique_ptr<StreamGenerator> gen,
                             std::uint64_t seed, FleetSchedulePtr faults,
                             std::size_t window)
    : FleetPipeline(gen ? gen->n() : 0, std::move(faults), window) {
  gen_ = std::move(gen);
  gen_rng_ = Rng::derive(seed, /*stream_id=*/0x5EED);
  staging_.assign(n_, 0);
}

const ValueVector& FleetPipeline::step(TimeStep t, const AdversaryView& view,
                                       telemetry::StepProfiler* prof) {
  TOPKMON_ASSERT_MSG(gen_ != nullptr, "pipeline without generator needs the true vector");
  {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kGenerator);
    if (t == 0) {
      gen_->init(staging_, gen_rng_);
    } else {
      gen_->step(t, view, staging_, gen_rng_);
    }
  }
  return step(t, staging_, prof);
}

const ValueVector& FleetPipeline::step(TimeStep t, const ValueVector& truth,
                                       telemetry::StepProfiler* prof) {
  effective_ = &truth;
  if (injector_) {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kFaultInject);
    effective_ = &injector_->transform(t, truth);
  }
  monitored_ = effective_;
  if (window_) {
    TOPKMON_PHASE_SCOPE(prof, telemetry::Phase::kWindowMerge);
    monitored_ = &window_->push(t, *effective_);
  }
  return *monitored_;
}

}  // namespace topkmon
