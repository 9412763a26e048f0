// SA1 fixture: a block whose condition ends in a call through a subscripted
// element, `if (st.workers[t]->queue.pop(v)) {`, is an if block, not a
// lambda with a trailing return type `-> queue.pop(v))`. The plain accesses
// inside it, and in the function it calls, run in a concurrent context.
// Expected: SA1 x2.
#include <cstdint>
#include <memory>
#include <vector>

namespace smpst {

struct Queue {
  bool pop(std::uint32_t& v);
};

struct Worker {
  Queue queue;
};

struct TraversalState {
  std::unique_ptr<std::uint32_t[]> parent;
  std::vector<std::unique_ptr<Worker>> workers;
};

void expand_bad(TraversalState& st, std::uint32_t v) {
  st.parent[v + 1] = v;                                // SA1
}

void worker_bad(TraversalState& st, std::size_t t) {
  std::uint32_t v = 0;
  if (st.workers[t]->queue.pop(v)) {
    st.parent[v] = v;                                  // SA1
    expand_bad(st, v);
  }
}

void run_traversal(TraversalState& st, ThreadPool& pool) {
  pool.run([&](std::size_t tid) { worker_bad(st, tid); });
}

}  // namespace smpst
