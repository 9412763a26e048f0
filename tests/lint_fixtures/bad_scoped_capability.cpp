// Fixture: user-defined SMPST_SCOPED_CAPABILITY RAII classes acquire in
// their constructor just like LockGuard.  smpst_lint must learn the class
// name from its declaration and report SL002 for a failpoint executed while
// an instance is alive — and stay silent once the instance's scope ends.
#include "sched/spinlock.hpp"
#include "support/failpoint.hpp"
#include "support/thread_annotations.hpp"

namespace fixture {

class SMPST_SCOPED_CAPABILITY ShardGuard {
 public:
  explicit ShardGuard(smpst::SpinLock& l) SMPST_ACQUIRE(l) : lock_(l) {
    lock_.lock();
  }
  ~ShardGuard() SMPST_RELEASE() { lock_.unlock(); }

 private:
  smpst::SpinLock& lock_;
};

void bad_custom_guard(smpst::SpinLock& lock) {
  ShardGuard g(lock);
  SMPST_FAILPOINT("fixture.custom_guard");  // SL002
}

void good_after_scope(smpst::SpinLock& lock) {
  {
    ShardGuard g{lock};
  }
  SMPST_FAILPOINT("fixture.custom_released");  // guard destroyed: no finding
}

}  // namespace fixture
