#include "service/graph_registry.hpp"

#include <algorithm>
#include <utility>

#include "core/validate.hpp"
#include "gen/registry.hpp"
#include "graph/io.hpp"
#include "storage/blocked_graph.hpp"
#include "support/failpoint.hpp"

namespace smpst::service {

void GraphRegistry::insert_locked(const std::string& name, Entry entry) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (!inserted) resident_bytes_ -= it->second.bytes;
  entry.last_use = ++tick_;
  resident_bytes_ += entry.bytes;
  it->second = std::move(entry);
  ++insertions_;
  enforce_budget_locked(name);
}

std::shared_ptr<const Graph> GraphRegistry::put(const std::string& name,
                                                Graph g) {
  SMPST_FAILPOINT("service.registry.put");
  auto stored = std::make_shared<const Graph>(std::move(g));
  Entry entry;
  entry.graph = stored;
  entry.bytes = stored->memory_bytes();
  entry.components = count_components(*stored);
  LockGuard<Mutex> lk(mutex_);
  insert_locked(name, std::move(entry));
  return stored;
}

std::shared_ptr<const storage::BlockedGraph> GraphRegistry::open_blocked(
    const std::string& name, const std::string& path,
    const storage::BlockCacheOptions& cache_opts) {
  // Open and count outside the lock: both touch the disk.
  auto stored = std::make_shared<const storage::BlockedGraph>(path, cache_opts);
  Entry entry;
  entry.blocked = stored;
  // The charge is the cache budget plus metadata — NOT the CSR payload. This
  // is what lets a graph bigger than the registry budget stay registered.
  entry.bytes = stored->memory_bytes();
  entry.components = count_components(*stored);
  LockGuard<Mutex> lk(mutex_);
  insert_locked(name, std::move(entry));
  return stored;
}

std::shared_ptr<const Graph> GraphRegistry::get(const std::string& name) {
  SMPST_FAILPOINT("service.registry.get");
  LockGuard<Mutex> lk(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.graph == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_use = ++tick_;
  return it->second.graph;
}

GraphRegistry::GraphHandle GraphRegistry::get_any(const std::string& name) {
  SMPST_FAILPOINT("service.registry.get");
  LockGuard<Mutex> lk(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    ++misses_;
    return {};
  }
  ++hits_;
  it->second.last_use = ++tick_;
  return {it->second.graph, it->second.blocked, it->second.components};
}

std::shared_ptr<const Graph> GraphRegistry::load_file(const std::string& name,
                                                      const std::string& path) {
  // Build outside the lock: disk I/O and CSR construction are the slow part.
  return put(name, io::load_graph(path));
}

std::shared_ptr<const Graph> GraphRegistry::generate(const std::string& name,
                                                     const std::string& family,
                                                     VertexId n,
                                                     std::uint64_t seed) {
  return put(name, gen::make_family(family, n, seed));
}

bool GraphRegistry::evict(const std::string& name) {
  LockGuard<Mutex> lk(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  resident_bytes_ -= it->second.bytes;
  entries_.erase(it);
  ++evictions_;
  return true;
}

std::vector<GraphRegistry::EntryInfo> GraphRegistry::list() const {
  LockGuard<Mutex> lk(mutex_);
  std::vector<std::pair<std::uint64_t, EntryInfo>> with_tick;
  with_tick.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    EntryInfo info;
    info.name = name;
    info.bytes = entry.bytes;
    if (entry.graph != nullptr) {
      info.vertices = entry.graph->num_vertices();
      info.edges = entry.graph->num_edges();
    } else {
      info.vertices = entry.blocked->num_vertices();
      info.edges = entry.blocked->num_edges();
      info.blocked = true;
    }
    with_tick.push_back({entry.last_use, std::move(info)});
  }
  std::sort(with_tick.begin(), with_tick.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<EntryInfo> result;
  result.reserve(with_tick.size());
  for (auto& [tick, info] : with_tick) result.push_back(std::move(info));
  return result;
}

GraphRegistry::Stats GraphRegistry::stats() const {
  LockGuard<Mutex> lk(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.entries = entries_.size();
  return s;
}

void GraphRegistry::enforce_budget_locked(const std::string& keep) {
  if (opts_.memory_budget_bytes == 0) return;
  while (resident_bytes_ > opts_.memory_budget_bytes && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    resident_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
  }
}

}  // namespace smpst::service
