// Request and result types of the spanning-tree query service.
#pragma once

#include <cstdint>
#include <string>

#include "core/instrumentation.hpp"
#include "core/spanning_forest.hpp"
#include "core/validate.hpp"
#include "graph/types.hpp"

namespace smpst::service {

struct SpanningTreeRequest {
  /// Registry key of the graph to query.
  std::string graph;

  /// Name from core/algorithms.hpp ("bader-cong", "bfs", "sv", ...).
  std::string algorithm = "bader-cong";

  /// When not kInvalidVertex, the returned tree containing this vertex is
  /// re-rooted at it (the "rooted spanning tree from v" query shape).
  VertexId root = kInvalidVertex;

  std::uint64_t seed = 0x5eed;

  /// Deadline measured from submission, covering queue wait plus execution.
  /// Negative = none. 0 = already expired (useful to probe the timeout path).
  std::int64_t timeout_ms = -1;

  /// Run core/validate on the result; failures surface as kError.
  bool validate = false;

  /// Collect TraversalStats (bader-cong only).
  bool want_stats = false;
};

enum class QueryStatus {
  kOk,
  kRejected,         ///< queue full or executor shut down; never executed
  kTimedOut,         ///< deadline expired before or during execution
  kNotFound,         ///< graph name not in the registry
  kInvalidArgument,  ///< unknown algorithm, root out of range, ...
  kError,            ///< validation-on-request failed or unclassified error
  kFailed,           ///< execution threw; retries and degradation exhausted
  kInvalid,          ///< paranoid validation rejected the final result
};

[[nodiscard]] constexpr const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRejected: return "rejected";
    case QueryStatus::kTimedOut: return "timed-out";
    case QueryStatus::kNotFound: return "not-found";
    case QueryStatus::kInvalidArgument: return "invalid-argument";
    case QueryStatus::kError: return "error";
    case QueryStatus::kFailed: return "failed";
    case QueryStatus::kInvalid: return "invalid";
  }
  return "unknown";
}

struct QueryResult {
  QueryStatus status = QueryStatus::kError;
  std::string error;  ///< empty unless the status carries a message

  std::string graph;
  std::string algorithm;

  /// Empty unless the traversal ran to completion. A kTimedOut result may
  /// still carry a complete forest: algorithms without a cooperative
  /// cancellation hook finish late, and the deadline verdict is applied
  /// afterwards.
  SpanningForest forest;
  VertexId num_trees = 0;

  bool validated = false;        ///< validate was requested and ran
  ValidationReport validation;   ///< meaningful when validated

  TraversalStats stats;  ///< filled when want_stats and algorithm supports it

  /// Echo of the request's want_stats flag. Renderers gate stats emission on
  /// this, not on whether `stats` happens to hold data (a degraded or retried
  /// run can leave per-thread entries behind that the client never asked for).
  bool stats_requested = false;

  /// Execution attempts consumed (1 = first try succeeded; >1 = retried).
  std::uint32_t attempts = 0;

  /// The result came from the sequential degradation fallback, not the
  /// requested algorithm (every retry of the requested algorithm threw).
  bool degraded = false;

  double queue_ms = 0.0;  ///< submission -> dequeue by a worker
  double exec_ms = 0.0;   ///< algorithm run time (all attempts)
  double total_ms = 0.0;  ///< submission -> result ready

  [[nodiscard]] bool ok() const noexcept { return status == QueryStatus::kOk; }
};

}  // namespace smpst::service
