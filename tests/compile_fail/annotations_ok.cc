// Expect-pass TU: the full src/common/sync.h surface used correctly —
// scoped and manual locking, TryLock branch tracking, REQUIRES helpers,
// EXCLUDES contracts, and the CondVar wait loop — must compile
// warning-free under -Werror=thread-safety(-beta). Pins that the wrapper
// annotations themselves are coherent (a bad attribute on a wrapper would
// poison every correct caller in src/).
// Registered by tests/compile_fail/CMakeLists.txt; never linked or run.

#include <deque>

#include "src/common/sync.h"

namespace {

class Channel {
 public:
  void Send(int v) SLP_EXCLUDES(mu_) {
    slp::MutexLock lock(mu_);
    queue_.push_back(v);
    cv_.NotifyOne();
  }

  int Receive() SLP_EXCLUDES(mu_) {
    slp::MutexLock lock(mu_);
    while (queue_.empty()) cv_.Wait(mu_);
    const int v = queue_.front();
    PopLocked();
    return v;
  }

  bool TrySend(int v) SLP_EXCLUDES(mu_) {
    if (!mu_.TryLock()) return false;
    queue_.push_back(v);
    mu_.Unlock();
    return true;
  }

 private:
  void PopLocked() SLP_REQUIRES(mu_) { queue_.pop_front(); }

  slp::Mutex mu_;
  slp::CondVar cv_;
  std::deque<int> queue_ SLP_GUARDED_BY(mu_);
};

}  // namespace

int main() {
  Channel c;
  c.Send(1);
  if (!c.TrySend(2)) return 1;
  return c.Receive() - 1;
}
