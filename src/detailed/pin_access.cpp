#include "src/detailed/pin_access.hpp"

#include <algorithm>
#include <limits>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace bonn {

namespace {

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

}  // namespace

std::vector<AccessPath> PinAccess::catalogue(
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

  // Each path the search hands over is checked as it is found, and the
  // search stops once the catalogue is full.  It is capped at twice the
  // catalogue's size, so a catalogue holds the first `max_paths` paths that
  // pass the check among the first 2 · `max_paths` found.
  static obs::Counter& c_settles = obs::counter("access.tau_settles");
  TauPathSearch search(window, layers, params.via_cost);
  const PointL source{centre.x, centre.y, 0};
  const std::size_t settles = search.each_path(
      source, targets, static_cast<std::size_t>(params.max_paths) * 2,
      [&](TauPathResult&& r) {
        AccessPath ap;
        ap.path = polyline_to_path(r.points, l0, pin.net, params.wiretype);
        ap.endpoint = cands[static_cast<std::size_t>(r.target_index)].vertex;
        ap.cost = r.cost / 100;  // τ-search costs are scaled by 100
        ap.length = r.length;
        // Final DRC validation of the concrete shapes (τ blow-ups are
        // conservative rectangles; the checker is authoritative).  Paths
        // blocked only by rippable wiring are kept with a penalty — the
        // ripup machinery can clear them (§4.2).
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
        if (!fixed_blocked) {
          if (needs_rip) ap.cost += 3000;
          out.push_back(std::move(ap));
        }
        return static_cast<int>(out.size()) < params.max_paths;
      });
  c_settles.add(static_cast<std::int64_t>(settles));

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

bool PinAccess::paths_conflict(const AccessPath& a, int net_a,
                               const AccessPath& b, int net_b) const {
  if (net_a == net_b) return false;
  const Tech& tech = rs_->chip().tech;
  RoutedPath pa = a.path;
  pa.net = net_a;
  RoutedPath pb = b.path;
  pb.net = net_b;
  const auto sa = expand_path(pa, tech);
  const auto sb = expand_path(pb, tech);
  for (const Shape& x : sa) {
    for (const Shape& y : sb) {
      if (x.global_layer != y.global_layer) continue;
      Coord sp = 0;
      if (is_wiring(x.global_layer)) {
        const int l = wiring_of_global(x.global_layer);
        const Coord prl = std::max(run_length(x.rect.x_iv(), y.rect.x_iv()),
                                   run_length(x.rect.y_iv(), y.rect.y_iv()));
        sp = std::max(tech.table(l, x.cls).required(x.rect.rule_width(),
                                                    y.rect.rule_width(), prl),
                      tech.table(l, y.cls).required(x.rect.rule_width(),
                                                    y.rect.rule_width(), prl));
      } else {
        const ViaLayer& vl =
            tech.via_layers[static_cast<std::size_t>(via_of_global(x.global_layer))];
        sp = vl.cut_spacing;
      }
      if (!keeps_distance(x.rect, y.rect, sp)) return true;
    }
  }
  return false;
}

namespace {

/// Spreading penalty (§4.3): endpoints on the same track close together
/// block each other's on-track continuation.
Coord spread_penalty(const AccessPath& a, const AccessPath& b) {
  if (a.endpoint.layer == b.endpoint.layer &&
      a.endpoint.track == b.endpoint.track &&
      abs_diff(a.endpoint.station, b.endpoint.station) <= 2) {
    return 300;
  }
  return 0;
}

}  // namespace

std::vector<int> PinAccess::conflict_free_selection(
    const std::vector<std::vector<AccessPath>>& catalogues) const {
  static obs::Counter& c_sel = obs::counter("access.conflict_free_selections");
  c_sel.add();
  const std::size_t n = catalogues.size();
  std::vector<int> best(n, -1);
  if (n == 0) return best;

  // Upper bound from greedy as the initial incumbent.
  std::vector<int> greedy = greedy_selection(catalogues);
  auto score = [&](const std::vector<int>& sel) {
    Coord total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (sel[i] < 0) {
        total += 100000;  // unserved pin: catastrophic
        continue;
      }
      total += catalogues[i][static_cast<std::size_t>(sel[i])].cost;
      for (std::size_t j = 0; j < i; ++j) {
        if (sel[j] >= 0) {
          total += spread_penalty(
              catalogues[i][static_cast<std::size_t>(sel[i])],
              catalogues[j][static_cast<std::size_t>(sel[j])]);
        }
      }
    }
    return total;
  };
  best = greedy;
  Coord best_score = score(best);

  // Min remaining cost per pin — the destructive bound.
  std::vector<Coord> min_cost(n, 100000);
  for (std::size_t i = 0; i < n; ++i) {
    for (const AccessPath& ap : catalogues[i]) {
      min_cost[i] = std::min(min_cost[i], ap.cost);
    }
  }
  std::vector<Coord> suffix_min(n + 1, 0);
  for (std::size_t i = n; i > 0; --i) {
    suffix_min[i - 1] = suffix_min[i] + min_cost[i - 1];
  }

  std::vector<int> cur(n, -1);
  std::int64_t nodes = 0;
  // Nets per pin for conflict checks: different pins may share a net.
  // (catalogues are per-pin; recover nets from the stored paths.)
  std::vector<int> nets(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!catalogues[i].empty()) nets[i] = catalogues[i].front().path.net;
  }

  const std::function<void(std::size_t, Coord)> dfs = [&](std::size_t i,
                                                          Coord acc) {
    if (++nodes > 20000) return;  // search budget
    if (acc + suffix_min[i] >= best_score) return;  // destructive bound
    if (i == n) {
      best = cur;
      best_score = acc;
      return;
    }
    // Try paths cheapest-first; also allow skipping (unserved) last.
    std::vector<int> order(catalogues[i].size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return catalogues[i][static_cast<std::size_t>(a)].cost <
             catalogues[i][static_cast<std::size_t>(b)].cost;
    });
    for (int k : order) {
      const AccessPath& ap = catalogues[i][static_cast<std::size_t>(k)];
      bool feasible = true;
      Coord extra = ap.cost;
      for (std::size_t j = 0; j < i && feasible; ++j) {
        if (cur[j] < 0) continue;
        const AccessPath& other =
            catalogues[j][static_cast<std::size_t>(cur[j])];
        if (paths_conflict(ap, nets[i], other, nets[j])) feasible = false;
        extra += spread_penalty(ap, other);
      }
      if (!feasible) continue;
      cur[i] = k;
      dfs(i + 1, acc + extra);
      cur[i] = -1;
    }
    cur[i] = -1;
    dfs(i + 1, acc + 100000);
  };
  dfs(0, 0);
  return best;
}

std::vector<int> PinAccess::greedy_selection(
    const std::vector<std::vector<AccessPath>>& catalogues) const {
  const std::size_t n = catalogues.size();
  std::vector<int> sel(n, -1);
  std::vector<int> nets(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!catalogues[i].empty()) nets[i] = catalogues[i].front().path.net;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<int> order(catalogues[i].size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = static_cast<int>(k);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return catalogues[i][static_cast<std::size_t>(a)].cost <
             catalogues[i][static_cast<std::size_t>(b)].cost;
    });
    for (int k : order) {
      bool ok = true;
      for (std::size_t j = 0; j < i && ok; ++j) {
        if (sel[j] < 0) continue;
        ok = !paths_conflict(catalogues[i][static_cast<std::size_t>(k)],
                             nets[i],
                             catalogues[j][static_cast<std::size_t>(sel[j])],
                             nets[j]);
      }
      if (ok) {
        sel[i] = k;
        break;
      }
    }
  }
  return sel;
}

}  // namespace bonn
