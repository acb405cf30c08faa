// CPU placement of the benchmark's threads. The multi-threaded workloads hand
// work between threads every step; left to the scheduler, two of them can
// share a core for a whole run and halve its parallel part. The benchmark
// therefore gives each of its threads a core of its own, the way the
// coordinator and node-hosts of a real deployment run on separate machines.
#pragma once

#include <vector>

namespace perfbench {

/// The CPUs the calling thread may run on, lowest first.
std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus`; an empty list leaves it as is.
void pin_current_thread(const std::vector<int>& cpus);

}  // namespace perfbench
