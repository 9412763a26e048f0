// Tests for the Helman–JáJá cost model: formula sanity, monotonicity in p,
// and the machine presets. The measured counterparts of the triples are
// covered with the kernels (test_bader_cong, test_perf_suite).
#include <gtest/gtest.h>

#include "model/cost_model.hpp"

namespace smpst {
namespace {

TEST(CostModel, BfsCostMatchesClosedForm) {
  const auto c = model::bfs_cost(1000, 1500);
  EXPECT_DOUBLE_EQ(c.mem_accesses, 1000.0 + 2.0 * 1500.0);
  EXPECT_DOUBLE_EQ(c.barriers, 0.0);
}

TEST(CostModel, PredictSecondsIsLinearInParams) {
  model::CostTriple c;
  c.mem_accesses = 1e6;
  auto m = model::sun_e4500();
  const double base = model::predict_seconds(c, m);
  m.noncontig_access_ns *= 2.0;
  EXPECT_DOUBLE_EQ(model::predict_seconds(c, m), 2.0 * base);
}

TEST(CostModel, TraversalCostScalesWithP) {
  const VertexId n = 1 << 20;
  const EdgeId m = 1 << 21;
  const auto p1 = model::bader_cong_cost(n, m, 1);
  const auto p8 = model::bader_cong_cost(n, m, 8);
  // Near-linear scaling: p=8 does ~1/8 the per-processor accesses (plus the
  // O(p) stub term).
  EXPECT_LT(p8.mem_accesses, p1.mem_accesses / 7.0);
  EXPECT_DOUBLE_EQ(p1.barriers, p8.barriers);
}

TEST(CostModel, SvCostsMoreThanTraversal) {
  // The paper's central comparison: even a single SV iteration does ~log n
  // more work per vertex, and the worst case carries log^2 n.
  const VertexId n = 1 << 20;
  const EdgeId m = 3 * (1 << 20);
  for (std::size_t p : {std::size_t{1}, std::size_t{8}}) {
    const auto bc = model::bader_cong_cost(n, m, p);
    const auto sv = model::sv_worst_case_cost(n, m, p);
    EXPECT_GT(sv.mem_accesses, 5.0 * bc.mem_accesses) << p;
    EXPECT_GT(sv.barriers, bc.barriers) << p;
  }
}

TEST(CostModel, MachinePresetsAreOrdered) {
  // The modern machine is faster across the board.
  const auto old_m = model::sun_e4500();
  const auto new_m = model::modern_smp();
  EXPECT_LT(new_m.noncontig_access_ns, old_m.noncontig_access_ns);
  EXPECT_LT(new_m.barrier_ns, old_m.barrier_ns);
  EXPECT_FALSE(old_m.name.empty());
}

}  // namespace
}  // namespace smpst
