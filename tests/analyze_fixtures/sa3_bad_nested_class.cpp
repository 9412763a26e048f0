// SA3 fixture: an out-of-line nested class definition (`class Outer::Inner
// {`) that holds locks of its own. It must be modelled as Outer::Inner, not
// as a second class named Outer: otherwise Inner's methods resolve their
// mutexes against Outer, find none, and Inner's inversion goes unreported
// (and in a project whose Outer is first seen through such a definition,
// Outer's own mutexes are lost).
// Expected: SA3 x2 (rank inversions in Outer::backwards and
// Outer::Inner::backwards).
#include "support/thread_annotations.hpp"

namespace smpst {

class Outer {
 public:
  void backwards();

 private:
  class Inner;

  Mutex session_mutex_{lockdep::rank::kSession};
  Mutex mail_mutex_{lockdep::rank::kNetMailbox};
};

class Outer::Inner {
 public:
  void backwards() {
    LockGuard<Mutex> net(inner_mail_mutex_);  // rank 30 first...
    LockGuard<Mutex> s(inner_session_mutex_);  // SA3: ...then rank 20
  }

 private:
  Mutex inner_session_mutex_{lockdep::rank::kSession};
  Mutex inner_mail_mutex_{lockdep::rank::kNetMailbox};
};

void Outer::backwards() {
  LockGuard<Mutex> net(mail_mutex_);    // rank 30 first...
  LockGuard<Mutex> s(session_mutex_);   // SA3: ...then rank 20
}

}  // namespace smpst
