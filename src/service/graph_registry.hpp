// Named, shared, memory-budgeted graph store for the query service.
//
// Graphs are immutable CSR structures (graph/graph.hpp), so many concurrent
// queries can traverse one instance; the registry hands out
// shared_ptr<const Graph> so an in-flight query pins its graph even if the
// entry is evicted or replaced underneath it. Eviction is LRU by a logical
// use tick, triggered when resident bytes exceed the configured budget; the
// most recently inserted entry is never evicted, so a single over-budget
// graph can still be served.
//
// Entries come in two flavors. A *resident* entry owns the full in-memory
// CSR and is charged its committed heap (Graph::memory_bytes). A *blocked*
// entry (storage/blocked_graph.hpp) keeps the CSR on disk behind a block
// cache and is charged only its cache budget plus metadata — which is the
// point: a graph far larger than the registry budget can still be served.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "storage/block_cache.hpp"
#include "support/thread_annotations.hpp"

namespace smpst::storage {
class BlockedGraph;
}  // namespace smpst::storage

namespace smpst::service {

class GraphRegistry {
 public:
  struct Options {
    /// Resident-set budget in bytes; 0 means unlimited.
    std::size_t memory_budget_bytes = 0;
  };

  struct EntryInfo {
    std::string name;
    std::size_t bytes = 0;  ///< registry charge, not CSR size for blocked
    VertexId vertices = 0;
    EdgeId edges = 0;
    bool blocked = false;
  };

  /// Backend-agnostic lookup result: exactly one pointer is set for a
  /// registered name (resident for in-memory entries, blocked for on-disk
  /// ones); both null on miss. Holding either keeps the graph alive across
  /// eviction, same as the shared_ptr contract of get().
  struct GraphHandle {
    std::shared_ptr<const Graph> resident;
    std::shared_ptr<const storage::BlockedGraph> blocked;
    /// Connected components, counted once at registration: the tree count
    /// every spanning forest of this graph must have.
    VertexId components = 0;

    explicit operator bool() const noexcept {
      return resident != nullptr || blocked != nullptr;
    }
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  ///< budget evictions + explicit evict()s
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  GraphRegistry() : GraphRegistry(Options{}) {}
  explicit GraphRegistry(Options opts) : opts_(opts) {}

  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Inserts (or replaces) `name`, then evicts least-recently-used entries
  /// while over budget. Returns the stored pointer.
  std::shared_ptr<const Graph> put(const std::string& name, Graph g);

  /// Looks up `name`, refreshing its recency. nullptr on miss. Resident
  /// entries only: a blocked entry answers nullptr here (counted as a miss) —
  /// callers able to serve both backends use get_any().
  std::shared_ptr<const Graph> get(const std::string& name);

  /// Backend-agnostic lookup, refreshing recency. Empty handle on miss.
  GraphHandle get_any(const std::string& name);

  /// Opens an on-disk CSR file (storage::write_csr_file format) as a blocked
  /// entry under `name`, charged at its cache budget rather than full CSR
  /// size. Throws storage::StorageError on a malformed or unreadable file.
  std::shared_ptr<const storage::BlockedGraph> open_blocked(
      const std::string& name, const std::string& path,
      const storage::BlockCacheOptions& cache_opts = {});

  /// Loads a graph from disk (graph/io formats, chosen by extension) and
  /// registers it under `name`. Throws std::runtime_error on I/O failure.
  std::shared_ptr<const Graph> load_file(const std::string& name,
                                         const std::string& path);

  /// Synthesizes a generator-registry family (gen/registry.hpp) and registers
  /// it under `name`. Throws std::invalid_argument for unknown families.
  std::shared_ptr<const Graph> generate(const std::string& name,
                                        const std::string& family, VertexId n,
                                        std::uint64_t seed);

  /// Explicitly removes `name`. Returns false if absent. In-flight queries
  /// holding the shared_ptr keep the graph alive.
  bool evict(const std::string& name);

  /// All resident entries, most recently used first.
  [[nodiscard]] std::vector<EntryInfo> list() const;

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Graph> graph;  ///< resident backend (may be null)
    std::shared_ptr<const storage::BlockedGraph> blocked;  ///< disk backend
    std::size_t bytes = 0;  ///< charge at insert time (stable per entry)
    VertexId components = 0;
    std::uint64_t last_use = 0;
  };

  void insert_locked(const std::string& name, Entry entry)
      SMPST_REQUIRES(mutex_);
  void enforce_budget_locked(const std::string& keep) SMPST_REQUIRES(mutex_);

  const Options opts_;
  mutable Mutex mutex_{lockdep::rank::kGraphRegistry};
  std::map<std::string, Entry> entries_ SMPST_GUARDED_BY(mutex_);
  std::uint64_t tick_ SMPST_GUARDED_BY(mutex_) = 0;
  std::size_t resident_bytes_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t insertions_ SMPST_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SMPST_GUARDED_BY(mutex_) = 0;
};

}  // namespace smpst::service
