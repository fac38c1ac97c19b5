// Detailed routing tests (§4): routing space consistency, future costs,
// interval vs per-vertex search equivalence (the core differential
// property), and the §4.4 net connection procedure on the tiny chip.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/db/instance_gen.hpp"
#include "src/detailed/net_router.hpp"
#include "src/detailed/ontrack_search.hpp"
#include "src/detailed/scheduler.hpp"
#include "src/drc/audit.hpp"
#include "src/geom/rsmt.hpp"
#include "src/util/rng.hpp"

namespace bonn {
namespace {

class DetailedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    chip_ = make_tiny_chip(4);
    rs_ = std::make_unique<RoutingSpace>(chip_);
  }

  /// Sources/targets on free vertices near the given points (layer 1).
  SearchSource src_at(Point p, int layer = 1) const {
    return {rs_->tg().nearest_vertex(layer, p), 0, 0};
  }

  Chip chip_;
  std::unique_ptr<RoutingSpace> rs_;
};

TEST_F(DetailedFixture, FutureCostConsistency) {
  FutureCost pi({{Rect{1000, 1000, 1100, 1100}, 2}}, 4, 400);
  // Lower bound at the target is the via distance only.
  EXPECT_EQ(pi({1050, 1050, 2}), 0);
  EXPECT_EQ(pi({1050, 1050, 0}), 800);  // two via hops
  // 1-Lipschitz in ℓ1.
  EXPECT_LE(pi({2000, 1000, 2}) - pi({1900, 1000, 2}), 100);
  EXPECT_EQ(pi({2000, 1000, 2}), 900);
}

TEST_F(DetailedFixture, CorridorTileBounds) {
  std::vector<Rect> tiles{{0, 0, 100, 100},
                          {100, 0, 200, 100},
                          {200, 0, 300, 100}};
  std::vector<bool> target{false, false, true};
  const auto bounds = corridor_tile_bounds(tiles, target);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[2].second, 0);  // target tile
  EXPECT_EQ(bounds[1].second, 0);  // adjacent (steps=1 -> bound 0)
  EXPECT_EQ(bounds[0].second, 100);  // two steps away
}

TEST_F(DetailedFixture, SearchFindsStraightPath) {
  const std::vector<Rect> area{chip_.die};
  const SearchSource s = src_at({500, 500});
  const TrackVertex t = rs_->tg().nearest_vertex(1, {500, 3300});
  FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                    rs_->tg().vertex_pt(t)),
                  1}},
                4, 400);
  SearchParams params;
  OnTrackSearch search(*rs_);
  const auto fp = search.run({&s, 1}, {&t, 1}, area, pi, params);
  ASSERT_TRUE(fp.has_value());
  // Layer 1 is vertical; source and target on the same track -> a straight
  // run with cost == distance.
  const Point ps = rs_->tg().vertex_pt(s.v);
  const Point pt = rs_->tg().vertex_pt(t);
  if (ps.x == pt.x) {
    EXPECT_EQ(fp->cost, l1_dist(ps, pt));
  } else {
    EXPECT_GE(fp->cost, l1_dist(ps, pt));
  }
}

TEST_F(DetailedFixture, SearchAvoidsBlockage) {
  // The tiny chip has a blockage {1500,1200,2100,2600} on layers 0 and 1.
  const std::vector<Rect> area{chip_.die};
  const SearchSource s = src_at({1000, 1900});
  const TrackVertex t = rs_->tg().nearest_vertex(1, {2600, 1900});
  FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                    rs_->tg().vertex_pt(t)),
                  1}},
                4, 400);
  SearchParams params;
  OnTrackSearch search(*rs_);
  const auto fp = search.run({&s, 1}, {&t, 1}, area, pi, params);
  ASSERT_TRUE(fp.has_value());
  // Path must be longer than the straight line (detour or via cost).
  EXPECT_GT(fp->cost, l1_dist(rs_->tg().vertex_pt(s.v), rs_->tg().vertex_pt(t)));
}

/// The core differential property: interval search (Algorithm 4) and the
/// per-vertex A* return the same optimal cost on random scenes.
TEST_F(DetailedFixture, IntervalMatchesVertexSearch) {
  Rng rng(31);
  // Random clutter.
  for (int i = 0; i < 25; ++i) {
    const Coord x = rng.range(300, 3300);
    const Coord y = rng.range(300, 3300);
    const int layer = static_cast<int>(rng.range(0, 3));
    rs_->insert_shape(Shape{Rect{x, y, x + rng.range(60, 700),
                                 y + rng.range(40, 90)},
                            global_of_wiring(layer), ShapeKind::kWire, 0,
                            static_cast<int>(rng.range(50, 60))},
                      kStandard);
  }
  const std::vector<Rect> area{chip_.die};
  OnTrackSearch isearch(*rs_);
  VertexSearch vsearch(*rs_);
  int compared = 0;
  for (int iter = 0; iter < 20; ++iter) {
    const int layer = static_cast<int>(rng.range(0, 3));
    const SearchSource s =
        src_at({rng.range(300, 3500), rng.range(300, 3500)}, layer);
    const TrackVertex t = rs_->tg().nearest_vertex(
        static_cast<int>(rng.range(0, 3)),
        {rng.range(300, 3500), rng.range(300, 3500)});
    if (!s.v.valid() || !t.valid()) continue;
    FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                      rs_->tg().vertex_pt(t)),
                    t.layer}},
                  4, 400);
    SearchParams params;  // no ripup: penalties identical in both searches
    const auto a = isearch.run({&s, 1}, {&t, 1}, area, pi, params);
    const auto b = vsearch.run({&s, 1}, {&t, 1}, area, pi, params);
    ASSERT_EQ(a.has_value(), b.has_value()) << "iter " << iter;
    if (a) {
      EXPECT_EQ(a->cost, b->cost) << "iter " << iter;
      ++compared;
    }
  }
  EXPECT_GT(compared, 5);
}

TEST_F(DetailedFixture, IntervalSearchCheaperInLabels) {
  // Long-distance connection: the interval search must create far fewer
  // labels than the vertex search pops (the Fig. 6 effect).  Endpoints are
  // chosen away from pins (the fast grid is net-blind; a raw search cannot
  // start inside a foreign pin's DRC shadow).
  const std::vector<Rect> area{chip_.die};
  const SearchSource s = src_at({1200, 3600}, 0);
  const TrackVertex t = rs_->tg().nearest_vertex(0, {3700, 1200});
  FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                    rs_->tg().vertex_pt(t)),
                  0}},
                4, 400);
  SearchParams params;
  SearchStats si{}, sv{};
  OnTrackSearch isearch(*rs_);
  VertexSearch vsearch(*rs_);
  const auto a = isearch.run({&s, 1}, {&t, 1}, area, pi, params, &si);
  const auto b = vsearch.run({&s, 1}, {&t, 1}, area, pi, params, &sv);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_LT(si.labels_created * 3, sv.labels_created)
      << "interval labels " << si.labels_created << " vs vertex "
      << sv.labels_created;
}

TEST_F(DetailedFixture, RoutingSpacePathRoundTrip) {
  RoutedPath p;
  p.net = 0;
  p.wiretype = 0;
  p.wires.push_back({{500, 1000}, {2500, 1000}, 0});
  p.vias.push_back({{2500, 1000}, 0});
  const TrackVertex probe = rs_->tg().nearest_vertex(0, {1500, 1000});
  const std::uint64_t before =
      rs_->fast().word(probe.layer, probe.track, probe.station);
  rs_->commit_path(p);
  EXPECT_EQ(rs_->paths(0).size(), 1u);
  const auto ripped = rs_->rip_net(0);
  EXPECT_EQ(ripped.size(), 1u);
  EXPECT_TRUE(rs_->paths(0).empty());
  EXPECT_EQ(rs_->fast().word(probe.layer, probe.track, probe.station), before);
}

TEST_F(DetailedFixture, NetRouterConnectsTinyChip) {
  NetRouter router(*rs_);
  DetailedScheduler sched(router, 1);
  NetRouteParams params;
  DetailedStats stats;
  sched.route_all(params, stats);
  EXPECT_EQ(stats.nets_failed, 0) << "failed nets on the tiny chip";
  const RoutingResult result = rs_->result();
  EXPECT_EQ(count_opens(chip_, result), 0);
  EXPECT_GT(result.total_wirelength(), 0);
  EXPECT_GT(stats.connections_routed, 0);
  // Quality: every routed net within 3x of its Steiner length.
  for (const Net& n : chip_.nets) {
    const Coord routed = result.net_wirelength(n.id);
    const Coord steiner = rsmt_length(chip_.net_terminals(n.id));
    EXPECT_LT(routed, 3 * steiner + 4000) << "net " << n.id;
  }
}

TEST_F(DetailedFixture, SpreadZonesCauseDetour) {
  // Wire spreading (§4.2): a keep-free zone across the straight path makes
  // the search route around (or through at extra cost, never cheaper).
  const std::vector<Rect> area{chip_.die};
  const SearchSource s = src_at({1200, 3600}, 0);
  const TrackVertex t = rs_->tg().nearest_vertex(0, {3700, 3600});
  ASSERT_TRUE(s.v.valid());
  ASSERT_TRUE(t.valid());
  FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                    rs_->tg().vertex_pt(t)),
                  0}},
                4, 400);
  OnTrackSearch search(*rs_);
  SearchParams base;
  const auto plain = search.run({&s, 1}, {&t, 1}, area, pi, base);
  ASSERT_TRUE(plain.has_value());
  const std::vector<std::pair<Rect, Coord>> zones{
      {Rect{2000, 3000, 2600, 3900}, 5000}};
  SearchParams spread = base;
  spread.spread_zones = &zones;
  const auto avoided = search.run({&s, 1}, {&t, 1}, area, pi, spread);
  ASSERT_TRUE(avoided.has_value());
  EXPECT_GE(avoided->cost, plain->cost);
}

TEST_F(DetailedFixture, BannedRegionsForceAvoidance) {
  const std::vector<Rect> area{chip_.die};
  const SearchSource s = src_at({1200, 3600}, 0);
  const TrackVertex t = rs_->tg().nearest_vertex(0, {3700, 3600});
  FutureCost pi({{Rect::from_points(rs_->tg().vertex_pt(t),
                                    rs_->tg().vertex_pt(t)),
                  0}},
                4, 400);
  OnTrackSearch search(*rs_);
  SearchParams base;
  const auto plain = search.run({&s, 1}, {&t, 1}, area, pi, base);
  ASSERT_TRUE(plain.has_value());
  // Ban a band across the straight route on the source layer.
  const std::vector<RectL> banned{{Rect{2000, 3400, 2600, 3800}, 0}};
  SearchParams bp = base;
  bp.banned = &banned;
  const auto rerouted = search.run({&s, 1}, {&t, 1}, area, pi, bp);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_GT(rerouted->cost, plain->cost);
  // No path vertex inside the banned band on layer 0.
  for (const TrackVertex& v : rerouted->vertices) {
    if (v.layer != 0) continue;
    EXPECT_FALSE(banned[0].r.contains(rs_->tg().vertex_pt(v)))
        << "path entered banned region";
  }
}

TEST_F(DetailedFixture, VerticesToPathViaStickConsistency) {
  // Route one net, check committed sticks: wires axis-parallel on correct
  // layers, vias between adjacent layers.
  NetRouter router(*rs_);
  DetailedStats stats;
  DetailedScheduler(router, 1).route_nets({0}, NetRouteParams{}, stats);
  for (const RoutedPath& p : rs_->paths(0)) {
    for (const WireStick& w : p.wires) {
      EXPECT_TRUE(w.a.x == w.b.x || w.a.y == w.b.y);
      EXPECT_GE(w.layer, 0);
      EXPECT_LT(w.layer, 4);
    }
    for (const ViaStick& v : p.vias) {
      EXPECT_GE(v.below, 0);
      EXPECT_LT(v.below, 3);
    }
  }
}

// Regression: the search's closed-set key used to pack (layer, track,
// station) into 16/24/24 bits with plain shifts, so distinct vertices could
// collide — e.g. {0, 1, 0} and {0, 0, 1 << 24} hashed identically, and the
// -1 sentinel coordinates of invalid vertices aliased real ones.  The biased
// 21-bit packing is injective over the asserted domain.
TEST(VertexKey, InjectiveOverFormerCollisionPairs) {
  const std::pair<TrackVertex, TrackVertex> pairs[] = {
      {{0, 1, 0}, {0, 0, 1 << 20}},       // track bit spilling into layer
      {{1, 0, 0}, {0, 1 << 20, 0}},       // station bit spilling into track
      {{0, 0, -1}, {0, -1, 0}},           // sentinel aliasing
      {{-1, -1, -1}, {0, 0, 0}},          // invalid() vs origin
      {{3, 17, 250}, {3, 18, 250}},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(vertex_key(a), vertex_key(b))
        << "(" << a.layer << "," << a.track << "," << a.station << ") vs ("
        << b.layer << "," << b.track << "," << b.station << ")";
  }
  // Dense exhaustive corner: all keys distinct in a small cube around the
  // origin, including negative sentinels.
  std::vector<std::uint64_t> keys;
  for (int l = -1; l <= 2; ++l)
    for (int t = -1; t <= 6; ++t)
      for (int s = -1; s <= 6; ++s) keys.push_back(vertex_key({l, t, s}));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

}  // namespace
}  // namespace bonn
