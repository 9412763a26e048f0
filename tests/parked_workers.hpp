// Test helper: parks executor workers on latch tasks so a test can fill the
// bounded queue deterministically.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <latch>
#include <memory>

#include "service/executor.hpp"

namespace smpst::service {

/// Sends `workers` tasks through submit_task and waits until every one has
/// started, so each worker is busy and the queue is empty. The tasks block
/// until release() (or destruction). Declare it after the executor, so it
/// releases the workers before the executor joins them.
class ParkedWorkers {
 public:
  ParkedWorkers(QueryExecutor& executor, std::size_t workers)
      : state_(std::make_shared<State>(workers)) {
    for (std::size_t i = 0; i < workers; ++i) {
      const bool queued = executor.submit_task([state = state_] {
        state->started.count_down();
        state->release.wait();
      });
      if (!queued) {
        ADD_FAILURE() << "latch task " << i << " was not queued";
        state_->started.count_down();
      }
    }
    state_->started.wait();
  }

  ~ParkedWorkers() { release(); }

  ParkedWorkers(const ParkedWorkers&) = delete;
  ParkedWorkers& operator=(const ParkedWorkers&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    state_->release.count_down();
  }

 private:
  struct State {
    explicit State(std::size_t workers)
        : started(static_cast<std::ptrdiff_t>(workers)) {}
    std::latch started;
    std::latch release{1};
  };

  std::shared_ptr<State> state_;
  bool released_ = false;
};

}  // namespace smpst::service
