#include "exec/run_grid.h"

#include <thread>

#include "sim/env.h"

namespace dlpsim::exec {

std::vector<Job> Grid(const std::vector<std::string>& apps,
                      const std::vector<std::string>& configs) {
  std::vector<Job> grid;
  grid.reserve(apps.size() * configs.size());
  for (const std::string& app : apps) {
    for (const std::string& config : configs) {
      grid.push_back(Job{app, config});
    }
  }
  return grid;
}

std::size_t DefaultJobs() {
  if (const std::uint64_t jobs = env::U64("DLPSIM_JOBS", 0); jobs > 0) {
    return static_cast<std::size_t>(jobs);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

}  // namespace dlpsim::exec
