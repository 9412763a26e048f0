// Compile-and-run check for the umbrella header: a downstream user's
// "hello world" using only #include "smpst.hpp".
#include <gtest/gtest.h>

#include "smpst.hpp"

namespace {

TEST(Umbrella, EndToEndThroughSingleInclude) {
  using namespace smpst;
  const Graph g = gen::make_family("geo-hier", 800, 7);

  BaderCongOptions opts;
  opts.num_threads = 4;
  const SpanningForest forest = bader_cong_spanning_tree(g, opts);
  ASSERT_TRUE(validate_spanning_forest(g, forest).ok);

  const auto cc = cc::cc_from_forest(forest);
  EXPECT_GE(cc.count, 1u);

  const auto wg = msf::with_random_weights(g, 1);
  EXPECT_EQ(msf::boruvka(wg, {.num_threads = 2}).size(),
            forest.num_tree_edges());

  const apps::RootedForest rf(forest);
  EXPECT_EQ(rf.num_vertices(), g.num_vertices());

  const auto cost =
      model::bader_cong_cost(g.num_vertices(), g.num_edges(), 8);
  EXPECT_GT(model::predict_seconds(cost, model::sun_e4500()), 0.0);
}

}  // namespace
