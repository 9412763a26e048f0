// SA1 fixture: plain reads of the racy traversal storage on the right of
// `&&` in a concurrent context. The `&` of `&&` is not an address-of, so
// `x && st.parent[w]` reads the element; it is not a prefetch address.
// Expected: SA1 x2.
#include <cstdint>
#include <memory>

namespace smpst {

struct TraversalState {
  std::unique_ptr<std::uint32_t[]> parent;
  std::uint32_t n = 0;
};

bool unvisited_bad(TraversalState& st, std::uint32_t w, bool eligible) {
  const bool spaced = eligible && st.parent[w] == 0;   // SA1
  return spaced &&st.parent[w + 1] == 0;               // SA1
}

void run_traversal(TraversalState& st, ThreadPool& pool) {
  pool.run([&](std::size_t tid) {
    (void)unvisited_bad(st, static_cast<std::uint32_t>(tid), true);
  });
}

}  // namespace smpst
