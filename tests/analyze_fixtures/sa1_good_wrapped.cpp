// SA1 fixture (good twin): every concurrent access to the racy storage goes
// through the sanctioned wrappers; sequential phases (constructor, pre-pool
// setup) use plain accesses, and prefetch takes addresses without reading.
// `if constexpr` blocks are parsed as statements, not as calls or functions.
// Expected: clean.
#include <cstdint>
#include <memory>

namespace smpst {

struct TraversalState {
  explicit TraversalState(std::uint32_t num)
      : n(num),
        color(std::make_unique<std::uint32_t[]>(num)),
        parent(std::make_unique<std::uint32_t[]>(num)) {
    // Single-threaded: the pool has not entered the traversal yet.
    for (std::uint32_t v = 0; v < n; ++v) {
      color[v] = 0;
      parent[v] = v;
    }
  }

  std::uint32_t n;
  std::unique_ptr<std::uint32_t[]> color;
  std::unique_ptr<std::uint32_t[]> parent;
};

// Single-threaded, never reached from the pool. Its `if constexpr (` is not
// a function named `constexpr`, so the one in expand_good does not call it.
void reset_serial(TraversalState& st) {
  if constexpr (sizeof(std::uint32_t) == 4) {
    for (std::uint32_t v = 0; v < st.n; ++v) st.color[v] = 0;
  }
}

void expand_good(TraversalState& st, std::uint32_t v, std::uint32_t label) {
  if constexpr (sizeof(std::uint32_t) == 4) {
    prefetch_read(&st.color[v + 4]);  // address-of for prefetch: no access
  }
  if (SMPST_BENIGN_RACE_LOAD(st.color[v]) == 0) {
    SMPST_BENIGN_RACE_STORE(st.color[v], label);
    SMPST_BENIGN_RACE_STORE(st.parent[v], v);
  }
  std::uint32_t expected = 0;
  race_cas(st.color[v], expected, label, std::memory_order_release,
           std::memory_order_acquire);
}

void run_traversal(TraversalState& st, ThreadPool& pool) {
  pool.run([&](std::size_t tid) {
    expand_good(st, static_cast<std::uint32_t>(tid), 1);
  });
}

}  // namespace smpst
