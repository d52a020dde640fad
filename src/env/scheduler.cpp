#include "env/scheduler.hpp"

#include "util/contracts.hpp"

namespace hh::env {

Scheduler::Scheduler(double skip_probability)
    : skip_probability_(skip_probability) {
  HH_EXPECTS(skip_probability < 1.0);  // false for NaN as well
}

}  // namespace hh::env
