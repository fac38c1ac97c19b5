// Pin access tests (§4.3): catalogues, conflict-free vs greedy selection
// (the Fig. 7 phenomenon), DRC-cleanliness of access paths, and catalogues
// against the collect-then-filter loop the stopping search replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/db/instance_gen.hpp"
#include "src/detailed/pin_access.hpp"
#include "src/obs/metrics.hpp"
#include "src/router/bonnroute.hpp"
#include "src/util/assert.hpp"

namespace bonn {
namespace {

class PinAccessFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    chip_ = make_tiny_chip(4);
    rs_ = std::make_unique<RoutingSpace>(chip_);
    access_ = std::make_unique<PinAccess>(*rs_);
  }
  Chip chip_;
  std::unique_ptr<RoutingSpace> rs_;
  std::unique_ptr<PinAccess> access_;
};

TEST_F(PinAccessFixture, CatalogueNonEmptyAndClean) {
  PinAccessParams params;
  int with_paths = 0;
  for (const Pin& pin : chip_.pins) {
    const auto cat = access_->catalogue(pin, params);
    if (!cat.empty()) ++with_paths;
    for (const AccessPath& ap : cat) {
      // Endpoint is a valid on-track vertex.
      ASSERT_TRUE(ap.endpoint.valid());
      // All sticks DRC-clean right now.
      for (const WireStick& w : ap.path.wires) {
        EXPECT_TRUE(rs_->checker().check_wire(w, pin.net, 0).allowed);
      }
      // Path actually starts at/in the pin and ends at the endpoint vertex.
      const Point end = rs_->tg().vertex_pt(ap.endpoint);
      bool touches_end = false;
      for (const WireStick& w : ap.path.wires) {
        touches_end |= w.a == end || w.b == end;
      }
      for (const ViaStick& v : ap.path.vias) touches_end |= v.at == end;
      EXPECT_TRUE(touches_end || ap.path.empty());
      // Cheapest-first ordering.
    }
    for (std::size_t i = 1; i < cat.size(); ++i) {
      EXPECT_LE(cat[i - 1].cost, cat[i].cost);
    }
  }
  EXPECT_EQ(with_paths, static_cast<int>(chip_.pins.size()))
      << "every pin of the tiny chip must be accessible";
}

TEST_F(PinAccessFixture, TauFeasibleSegments) {
  PinAccessParams params;
  const auto cat = access_->catalogue(chip_.pins[0], params);
  ASSERT_FALSE(cat.empty());
  for (const AccessPath& ap : cat) {
    for (const WireStick& w : ap.path.wires) {
      const Coord tau =
          chip_.tech.wiring[static_cast<std::size_t>(w.layer)].min_seg_len;
      EXPECT_GE(w.length(), std::min<Coord>(tau, w.length() == 0 ? 0 : tau))
          << "segment shorter than tau";
      if (w.length() > 0) {
        EXPECT_GE(w.length(), tau);
      }
    }
  }
}

/// Fig. 7: construct three pins in a row where greedy (cheapest-first)
/// access blocks the neighbour, while conflict-free selection serves all.
TEST_F(PinAccessFixture, ConflictFreeBeatsGreedy) {
  // Build an artificial cluster: three adjacent pins of different nets.
  std::vector<std::vector<AccessPath>> catalogues;
  PinAccessParams params;
  params.max_paths = 8;
  // Use three pins of different nets from the tiny chip, relocated
  // virtually by just taking their real catalogues.
  std::vector<const Pin*> pins;
  for (const Pin& p : chip_.pins) {
    if (pins.empty() || pins.back()->net != p.net) pins.push_back(&p);
    if (pins.size() == 3) break;
  }
  ASSERT_EQ(pins.size(), 3u);
  for (const Pin* p : pins) {
    catalogues.push_back(access_->catalogue(*p, params));
    ASSERT_FALSE(catalogues.back().empty());
  }
  const auto cf = access_->conflict_free_selection(catalogues);
  const auto gr = access_->greedy_selection(catalogues);
  // Conflict-free must serve at least as many pins as greedy...
  int cf_served = 0, gr_served = 0;
  for (int s : cf) cf_served += s >= 0;
  for (int s : gr) gr_served += s >= 0;
  EXPECT_GE(cf_served, gr_served);
  // ... and its choices must be pairwise conflict-free.
  for (std::size_t i = 0; i < catalogues.size(); ++i) {
    for (std::size_t j = i + 1; j < catalogues.size(); ++j) {
      if (cf[i] < 0 || cf[j] < 0) continue;
      EXPECT_FALSE(access_->paths_conflict(
          catalogues[i][static_cast<std::size_t>(cf[i])], pins[i]->net,
          catalogues[j][static_cast<std::size_t>(cf[j])], pins[j]->net));
    }
  }
}

TEST_F(PinAccessFixture, PathsConflictDetectsOverlap) {
  PinAccessParams params;
  const auto cat = access_->catalogue(chip_.pins[0], params);
  ASSERT_FALSE(cat.empty());
  // A path always "conflicts" with itself under a different net id.
  EXPECT_TRUE(access_->paths_conflict(cat[0], 100, cat[0], 200));
  // Same net: never a conflict.
  EXPECT_FALSE(access_->paths_conflict(cat[0], 100, cat[0], 100));
}

// ---------------------------------------------------------------------------
// Differential test.  ReferenceAccess::catalogue is PinAccess::catalogue as
// it was before the τ-search learned to stop once the catalogue is full: it
// collects the first 2 · max_paths paths with all_paths, then keeps the
// first max_paths that pass the DRC check.  Its body is kept verbatim but
// for the two lines marked "coverage", which count the paths its loop
// examines (the paths the new search hands over).

/// Convert a τ-path polyline into sticks.
RoutedPath polyline_to_path(const std::vector<PointL>& pts, int base_layer,
                            int net, int wiretype) {
  RoutedPath rp;
  rp.net = net;
  rp.wiretype = wiretype;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const PointL& a = pts[i - 1];
    const PointL& b = pts[i];
    if (a.layer != b.layer) {
      rp.vias.push_back(
          {a.pt(), base_layer + std::min(a.layer, b.layer)});
    } else if (!(a.pt() == b.pt())) {
      WireStick w;
      w.a = a.pt();
      w.b = b.pt();
      w.layer = base_layer + a.layer;
      w.normalize();
      rp.wires.push_back(w);
    }
  }
  return rp;
}

class ReferenceAccess {
 public:
  explicit ReferenceAccess(const RoutingSpace& rs) : rs_(&rs) {}

  std::vector<AccessPath> catalogue(const Pin& pin,
                                    const PinAccessParams& params) const;

  /// Paths examined by each collect-then-filter loop run since the last
  /// clear (a catalogue call runs one per recursion level).
  mutable std::vector<int> examined;

 private:
  const RoutingSpace* rs_;
};

std::vector<AccessPath> ReferenceAccess::catalogue(
    const Pin& pin, const PinAccessParams& params) const {
  // Catalogue (re)builds: first-time §4.3 preprocessing plus every dynamic
  // regeneration after a rip-up — the "pin access attempts" evidence.
  static obs::Counter& c_cat = obs::counter("access.catalogues_built");
  c_cat.add();
  std::vector<AccessPath> out;
  if (pin.shapes.empty()) return out;
  const Tech& tech = rs_->chip().tech;
  const TrackGraph& tg = rs_->tg();
  const int l0 = pin.anchor_layer();
  const int num_layers =
      std::min(params.access_layers, tech.num_wiring() - l0);
  BONN_CHECK(num_layers >= 1);
  const Rect pin_bb = pin.shapes.front().r;
  const Rect window = pin_bb.expanded(params.window_radius)
                          .intersection(rs_->grid().die());

  // τ-search layers: obstacles are foreign shapes blown up so the zero-width
  // centreline keeps the required spacing.
  std::vector<TauLayer> layers;
  for (int dl = 0; dl < num_layers; ++dl) {
    const int l = l0 + dl;
    const WiringLayer& wl = tech.wiring[static_cast<std::size_t>(l)];
    TauLayer tl;
    tl.tau = wl.min_seg_len;
    tl.pref = wl.pref;
    // Blow-up uses the wire *half-width* (the jog model is symmetric); the
    // line-end extension is direction-dependent and would close legal
    // corridors — optimistic cases are filtered by the final checker pass.
    const WireModel& model = tech.wire_model(params.wiretype, l, false);
    const Coord halfw = std::min(model.expand.xhi, model.expand.yhi);
    rs_->grid().query(
        global_of_wiring(l), window.expanded(tech.max_spacing(l)),
        [&](const GridShape& gs) {
          if (gs.net >= 0 && gs.net == pin.net) return;
          const bool movable = gs.net >= 0 && gs.kind != ShapeKind::kPin &&
                               gs.kind != ShapeKind::kBlockage &&
                               gs.ripup > kFixed;
          if (params.ignore_rippable && movable) {
            return;  // rip-tolerant mode: movable wiring is transparent
          }
          const Coord sp = tech.table(l, gs.cls)
                               .required(wl.min_width, gs.rule_width, 0);
          tl.obstacles.push_back(gs.rect.expanded(halfw + sp));
        });
    layers.push_back(std::move(tl));
  }

  // Candidate on-track endpoints: nearest usable vertices in the window.
  struct Cand {
    PointL local;  ///< τ-search coordinates (layer relative to l0)
    TrackVertex vertex;
  };
  std::vector<Cand> cands;
  const Point centre = pin_bb.center();
  const int ep_wt = params.endpoint_wiretype >= 0 ? params.endpoint_wiretype
                                                  : params.wiretype;
  for (int dl = 0; dl < num_layers; ++dl) {
    const int l = l0 + dl;
    for (const TrackVertex& v : tg.vertices_in(l, window)) {
      const std::uint64_t word = rs_->fast().word(v.layer, v.track, v.station);
      const std::uint8_t field =
          FastGrid::wiring_field(word, ep_wt, FastGrid::kWireF);
      const bool usable = params.ignore_rippable
                              ? FastGrid::passes(field, kStandard)
                              : field == FastGrid::kFree;
      if (!usable) continue;
      const Point p = tg.vertex_pt(v);
      cands.push_back({{p.x, p.y, dl}, v});
    }
  }
  std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
    return l1_dist(a.local.pt(), centre) - params.layer_bonus * a.local.layer <
           l1_dist(b.local.pt(), centre) - params.layer_bonus * b.local.layer;
  });
  if (static_cast<int>(cands.size()) > params.max_targets) {
    cands.resize(static_cast<std::size_t>(params.max_targets));
  }
  if (cands.empty()) return out;

  std::vector<PointL> targets;
  targets.reserve(cands.size());
  for (const Cand& c : cands) targets.push_back(c.local);

  TauPathSearch search(window, layers, params.via_cost);
  const PointL source{centre.x, centre.y, 0};
  const auto results = search.all_paths(
      source, targets, static_cast<std::size_t>(params.max_paths) * 2);

  examined.push_back(0);  // coverage
  for (const TauPathResult& r : results) {
    if (static_cast<int>(out.size()) >= params.max_paths) break;
    ++examined.back();  // coverage
    AccessPath ap;
    ap.path = polyline_to_path(r.points, l0, pin.net, params.wiretype);
    ap.endpoint = cands[static_cast<std::size_t>(r.target_index)].vertex;
    ap.cost = r.cost / 100;  // τ-search costs are scaled by 100
    ap.length = r.length;
    // Final DRC validation of the concrete shapes (τ blow-ups are
    // conservative rectangles; the checker is authoritative).  Paths blocked
    // only by rippable wiring are kept with a penalty — the ripup machinery
    // can clear them (§4.2).
    bool fixed_blocked = false;
    bool needs_rip = false;
    auto note = [&](const PlacementCheck& pc) {
      if (pc.allowed) return;
      if (pc.min_blocker_ripup == kFixed) {
        fixed_blocked = true;
      } else {
        needs_rip = true;
      }
    };
    for (const WireStick& w : ap.path.wires) {
      note(rs_->checker().check_wire(w, pin.net, params.wiretype));
    }
    for (const ViaStick& v : ap.path.vias) {
      note(rs_->checker().check_via(v, pin.net, params.wiretype));
    }
    if (fixed_blocked) continue;
    if (needs_rip) ap.cost += 3000;
    out.push_back(std::move(ap));
  }

  if (out.empty() && params.wiretype != 0) {
    // Wide wires rarely fit between row pins: taper to the standard wire
    // type for the access stub (the on-track path keeps the wide type, so
    // endpoint usability is still checked against it).
    PinAccessParams std_params = params;
    std_params.endpoint_wiretype = params.wiretype;
    std_params.wiretype = 0;
    return catalogue(pin, std_params);
  }

  if (out.empty() && !params.ignore_rippable) {
    // Hemmed in by movable wiring: retry treating rippable shapes as
    // transparent; resulting paths carry the needs-rip penalty.
    PinAccessParams rip_params = params;
    rip_params.ignore_rippable = true;
    return catalogue(pin, rip_params);
  }

  if (out.empty()) {
    // Fallback for hemmed-in pins (§4.3's dynamic generation, degenerate
    // form): an L-shaped stub to a nearby vertex on a layer above, trying
    // several candidates and both bend orders.  Accepted as long as no
    // *fixed* shape blocks it — foreign wires can still be ripped later.
    // Highest layer first: the continuation must escape the row clutter.
    for (int dl = num_layers - 1; dl >= 1 && out.empty(); --dl) {
      auto verts = tg.vertices_in(l0 + dl, pin_bb.expanded(300));
      std::sort(verts.begin(), verts.end(),
                [&](const TrackVertex& a, const TrackVertex& b) {
                  return l1_dist(tg.vertex_pt(a), centre) <
                         l1_dist(tg.vertex_pt(b), centre);
                });
      if (verts.size() > 10) verts.resize(10);
      if (verts.empty()) {
        const TrackVertex v = tg.nearest_vertex(l0 + dl, centre);
        if (v.valid()) verts.push_back(v);
      }
      for (const TrackVertex& v : verts) {
        const Point vp = tg.vertex_pt(v);
        for (int variant = 0; variant < 2 && out.empty(); ++variant) {
          const Point bend = variant == 0 ? Point{vp.x, centre.y}
                                          : Point{centre.x, vp.y};
          RoutedPath rp;
          rp.net = pin.net;
          rp.wiretype = params.wiretype;
          for (auto [a, b] : {std::pair{centre, bend}, std::pair{bend, vp}}) {
            if (a == b) continue;
            WireStick w{a, b, l0};
            w.normalize();
            rp.wires.push_back(w);
          }
          for (int k = 0; k < dl; ++k) rp.vias.push_back({vp, l0 + k});
          bool feasible = true;
          for (const WireStick& w : rp.wires) {
            const auto pc =
                rs_->checker().check_wire(w, pin.net, params.wiretype);
            if (!pc.allowed && pc.min_blocker_ripup == kFixed) feasible = false;
          }
          for (const ViaStick& via : rp.vias) {
            const auto pc =
                rs_->checker().check_via(via, pin.net, params.wiretype);
            if (!pc.allowed && pc.min_blocker_ripup == kFixed) feasible = false;
          }
          if (!feasible) continue;
          AccessPath ap;
          ap.length = l1_dist(centre, vp);
          ap.cost = 2000 + ap.length + 400 * dl;  // expensive: last resort
          ap.path = std::move(rp);
          ap.endpoint = v;
          out.push_back(std::move(ap));
        }
        if (!out.empty()) break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AccessPath& a, const AccessPath& b) {
              return a.cost < b.cost;
            });
  return out;
}

void expect_same_catalogue(const std::vector<AccessPath>& got,
                           const std::vector<AccessPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(got[i].cost, want[i].cost);
    EXPECT_EQ(got[i].length, want[i].length);
    EXPECT_TRUE(got[i].endpoint == want[i].endpoint);
    EXPECT_TRUE(got[i].path == want[i].path);
  }
}

/// The bench chip, the generator's 3×3-tile, 30-net chip with seed 1000,
/// as BonnRoute's access precompute sees it (pins only) and as an ECO edit
/// sees it (its BonnRoute result loaded).
class PinAccessDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChipParams cp;
    cp.tiles_x = cp.tiles_y = 3;
    cp.tracks_per_tile = 30;
    cp.num_nets = 30;
    cp.seed = 1000;
    chip_ = new Chip(generate_chip(cp));
    unrouted_ = new RoutingSpace(*chip_);
    FlowParams fp;
    fp.global.sharing.phases = 6;
    fp.threads = 1;
    RoutingResult result;
    const FlowReport report = run_bonnroute_flow(*chip_, fp, &result);
    BONN_CHECK(report.outcome != FlowOutcome::kFailed);
    routed_ = new RoutingSpace(*chip_, result);
  }
  static void TearDownTestSuite() {
    delete routed_;
    delete unrouted_;
    delete chip_;
  }

  /// Every pin's catalogue in `rs` against the reference's, with `adjust`
  /// applied to the router's parameters for the pin's net.  Counts the
  /// loop runs that examined more than max_paths paths and the catalogues
  /// left with fewer than max_paths.
  void compare_all(const RoutingSpace& rs,
                   const std::function<void(PinAccessParams&)>& adjust,
                   int& beyond_cap, int& short_of_full) {
    const PinAccess access(rs);
    const ReferenceAccess ref(rs);
    for (const Pin& pin : chip_->pins) {
      SCOPED_TRACE("pin " + std::to_string(pin.id));
      PinAccessParams params;
      params.wiretype =
          chip_->nets[static_cast<std::size_t>(pin.net)].wiretype;
      adjust(params);
      ref.examined.clear();
      const auto want = ref.catalogue(pin, params);
      expect_same_catalogue(access.catalogue(pin, params), want);
      if (HasFailure()) return;
      for (int n : ref.examined) beyond_cap += n > params.max_paths;
      short_of_full += static_cast<int>(want.size()) < params.max_paths;
    }
  }

  static Chip* chip_;
  static RoutingSpace* unrouted_;
  static RoutingSpace* routed_;
};

Chip* PinAccessDifferential::chip_ = nullptr;
RoutingSpace* PinAccessDifferential::unrouted_ = nullptr;
RoutingSpace* PinAccessDifferential::routed_ = nullptr;

TEST_F(PinAccessDifferential, CatalogueMatchesCollectThenFilter) {
  // The router's parameters, rip-tolerant mode, and a wide net's access
  // layers and layer bonus.
  const std::vector<std::function<void(PinAccessParams&)>> variants{
      [](PinAccessParams&) {},
      [](PinAccessParams& p) { p.ignore_rippable = true; },
      [](PinAccessParams& p) {
        p.access_layers = 4;
        p.layer_bonus = 600;
      }};
  int beyond_cap = 0, short_of_full = 0;
  for (const RoutingSpace* rs : {unrouted_, routed_}) {
    SCOPED_TRACE(rs == routed_ ? "routed" : "unrouted");
    for (std::size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE("variant " + std::to_string(v));
      compare_all(*rs, variants[v], beyond_cap, short_of_full);
      if (HasFailure()) return;
    }
  }
  // Both sides of the 2 · max_paths cap: searches that hand over more than
  // max_paths paths because fixed-blocked paths are among the first, and
  // catalogues that end short of max_paths.
  EXPECT_GE(beyond_cap, 20);
  EXPECT_GE(short_of_full, 5);
}

}  // namespace
}  // namespace bonn
