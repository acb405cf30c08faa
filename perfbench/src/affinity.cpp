#include "affinity.hpp"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  // Best effort: a refused placement costs measurement stability, not results.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace perfbench
