#include "sm/scheduler.h"

namespace dlpsim {

WarpScheduler::WarpScheduler(SchedulerKind kind, std::uint32_t index,
                             std::uint32_t num_schedulers,
                             std::uint32_t num_warps)
    : kind_(kind), index_(index), stride_(num_schedulers), owned_(num_warps) {
  for (std::uint32_t w = index; w < num_warps; w += num_schedulers) {
    owned_.Set(w);
    ++owned_count_;
  }
}

}  // namespace dlpsim
