#include "src/detailed/net_router.hpp"

#include <algorithm>
#include <set>

#include "src/geom/rect_union.hpp"
#include "src/geom/rsmt.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/faultpoint.hpp"

namespace bonn {

namespace {

/// Convert the corner vertices of a found path into sticks.
RoutedPath vertices_to_path(const TrackGraph& tg,
                            std::span<const TrackVertex> verts, int net,
                            int wiretype) {
  RoutedPath rp;
  rp.net = net;
  rp.wiretype = wiretype;
  for (std::size_t i = 1; i < verts.size(); ++i) {
    const TrackVertex& a = verts[i - 1];
    const TrackVertex& b = verts[i];
    const Point pa = tg.vertex_pt(a);
    const Point pb = tg.vertex_pt(b);
    if (a.layer != b.layer) {
      BONN_ASSERT(pa == pb);
      rp.vias.push_back({pa, std::min(a.layer, b.layer)});
    } else if (!(pa == pb)) {
      WireStick w;
      w.a = pa;
      w.b = pb;
      w.layer = a.layer;
      w.normalize();
      rp.wires.push_back(w);
    }
  }
  return rp;
}

/// One connected component of a net: pin ids and committed path indices.
struct Comp {
  std::vector<int> pins;    ///< pin ids (chip-wide)
  std::vector<int> paths;   ///< indices into RoutingSpace::paths(net)
};

std::vector<Comp> compute_components(const Chip& chip,
                                     const std::vector<RoutedPath>& paths,
                                     const Net& net) {
  struct Item {
    std::vector<RectL> shapes;
    int pin = -1;
    int path = -1;
  };
  std::vector<Item> items;
  for (int pid : net.pins) {
    Item it;
    it.pin = pid;
    it.shapes = chip.pins[static_cast<std::size_t>(pid)].shapes;
    items.push_back(std::move(it));
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    Item it;
    it.path = static_cast<int>(p);
    for (const Shape& s : expand_path(paths[p], chip.tech)) {
      if (is_wiring(s.global_layer)) {
        it.shapes.push_back({s.rect, wiring_of_global(s.global_layer)});
      }
    }
    items.push_back(std::move(it));
  }
  const std::size_t n = items.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      bool touch = false;
      for (const RectL& a : items[i].shapes) {
        for (const RectL& b : items[j].shapes) {
          if (a.layer == b.layer && a.r.intersects(b.r)) {
            touch = true;
            break;
          }
        }
        if (touch) break;
      }
      if (touch) parent[find(i)] = find(j);
    }
  }
  std::map<std::size_t, Comp> comps;
  for (std::size_t i = 0; i < n; ++i) {
    Comp& c = comps[find(i)];
    if (items[i].pin >= 0) c.pins.push_back(items[i].pin);
    if (items[i].path >= 0) c.paths.push_back(items[i].path);
  }
  std::vector<Comp> out;
  for (auto& [root, c] : comps) out.push_back(std::move(c));
  return out;
}

/// On-track vertices touched by a committed path: endpoints plus sampled
/// stations along on-track sticks (reconnection points, §4.4).
std::vector<TrackVertex> path_vertices(const TrackGraph& tg,
                                       const RoutedPath& p) {
  std::vector<TrackVertex> out;
  auto add = [&](const Point& pt, int layer) {
    const Dir d = tg.pref(layer);
    const int ti = tg.track_index(layer, d == Dir::kHorizontal ? pt.y : pt.x);
    const int si =
        tg.station_index(layer, d == Dir::kHorizontal ? pt.x : pt.y);
    if (ti >= 0 && si >= 0) out.push_back({layer, ti, si});
  };
  for (const WireStick& w : p.wires) {
    add(w.a, w.layer);
    add(w.b, w.layer);
    // If the stick runs on a track, every covered station is a legal
    // reconnection point; sample up to 14 of them.
    const Dir d = tg.pref(w.layer);
    const bool on_pref = (d == Dir::kHorizontal) == w.horizontal();
    if (!on_pref || w.length() == 0) continue;
    const Coord cross = d == Dir::kHorizontal ? w.a.y : w.a.x;
    const int ti = tg.track_index(w.layer, cross);
    if (ti < 0) continue;
    const Interval along = d == Dir::kHorizontal
                               ? Interval{w.a.x, w.b.x}
                               : Interval{w.a.y, w.b.y};
    const auto [slo, shi] = tg.station_range(w.layer, along);
    if (slo > shi) continue;
    const int stride = std::max(1, (shi - slo) / 14);
    for (int s = slo; s <= shi; s += stride) out.push_back({w.layer, ti, s});
  }
  for (const ViaStick& v : p.vias) {
    add(v.at, v.below);
    add(v.at, v.below + 1);
  }
  return out;
}

}  // namespace

bool NetRouter::route_net(int net, const NetRouteParams& params,
                          DetailedStats& stats, int rip_depth) {
  return connect_components(net, params, stats, rip_depth, /*entry=*/true);
}

bool NetRouter::connect_components(int net, const NetRouteParams& params,
                                   DetailedStats& stats, int rip_depth,
                                   bool entry) {
  const Chip& chip = rs_->chip();
  const Net& n = chip.nets[static_cast<std::size_t>(net)];
  const TrackGraph& tg = rs_->tg();
  const RipupLevel allowed_ripup = params.search.allowed_ripup;

  DetailedShared& sh = *shared_;

  // Violating commits are a last resort reserved for the net that started
  // the rip-up sequence.  A victim rerouted recursively must land cleanly:
  // letting the whole cascade commit despite violations turns one blocked
  // net into dozens of diff-net violations that cleanup then has to unpick
  // one reroute at a time.
  const bool commit_despite_violations =
      params.commit_despite_violations && entry;

  // A blocker may be ripped only if it is a real net and — under the §5.1
  // window discipline — inside this window's rip mask.
  auto rippable = [&](int b) {
    return b >= 0 &&
           (!params.rip_allowed ||
            (*params.rip_allowed)[static_cast<std::size_t>(b)] != 0);
  };

  // Pin access catalogues & conflict-free selection (lazy, §4.3) — only
  // built once the net actually needs routing.
  auto ensure_access = [&]() {
    bool need_selection = false;
    for (int pid : n.pins) {
      const auto p = static_cast<std::size_t>(pid);
      // Recompute missing *and* empty catalogues — an empty catalogue may
      // stem from a transiently congested neighbourhood (§4.3 dynamic
      // regeneration).
      if (sh.catalogues[p].empty()) {
        PinAccessParams ap = params.access;
        ap.wiretype = n.wiretype;
        // Wide nets: let the (tapered) access stub climb above the row
        // clutter — wide wires cannot navigate pin-dense bottom layers.
        if (n.wiretype != 0) {
          ap.access_layers = std::max(ap.access_layers, 4);
          ap.layer_bonus = 600;
        }
        sh.catalogues[p] =
            access_.catalogue(chip.pins[p], ap);
        need_selection = true;
      }
    }
    if (need_selection) {
      std::vector<std::vector<AccessPath>> cats;
      for (int pid : n.pins) {
        cats.push_back(sh.catalogues[static_cast<std::size_t>(pid)]);
      }
      const auto sel = params.greedy_access
                           ? access_.greedy_selection(cats)
                           : access_.conflict_free_selection(cats);
      for (std::size_t i = 0; i < n.pins.size(); ++i) {
        sh.selected[static_cast<std::size_t>(n.pins[i])] = sel[i];
      }
    }
  };

  std::set<int> ripped;
  int guard = 0;
  for (;;) {
    if (++guard > 4 * n.degree() + 8) return false;
    const auto& committed = rs_->paths(net);
    auto comps = compute_components(chip, committed, n);
    if (comps.size() <= 1) break;
    ensure_access();

    // Source: smallest component.
    std::size_t src_i = 0;
    for (std::size_t i = 1; i < comps.size(); ++i) {
      if (comps[i].pins.size() + comps[i].paths.size() <
          comps[src_i].pins.size() + comps[src_i].paths.size()) {
        src_i = i;
      }
    }

    struct EndpointInfo {
      int pin = -1;
      int access = -1;
    };
    std::vector<SearchSource> sources;
    std::vector<EndpointInfo> source_info;
    std::vector<TrackVertex> targets;
    std::vector<EndpointInfo> target_info;

    auto add_comp = [&](const Comp& c, bool as_source) {
      for (int pid : c.pins) {
        const auto& cat = sh.catalogues[static_cast<std::size_t>(pid)];
        const bool committed_access =
            sh.access_committed[static_cast<std::size_t>(pid)] != 0;
        for (std::size_t a = 0; a < cat.size(); ++a) {
          // If an access path is already committed, only its endpoint
          // remains (cost 0); otherwise every catalogue path is an entry
          // point with its cost as offset.
          if (committed_access &&
              static_cast<int>(a) !=
                  sh.selected[static_cast<std::size_t>(pid)]) {
            continue;
          }
          const Coord offset = committed_access ? 0 : cat[a].cost;
          if (as_source) {
            sources.push_back({cat[a].endpoint, offset,
                               static_cast<int>(source_info.size())});
            source_info.push_back({pid, static_cast<int>(a)});
          } else {
            targets.push_back(cat[a].endpoint);
            target_info.push_back({pid, static_cast<int>(a)});
          }
        }
      }
      for (int p : c.paths) {
        for (const TrackVertex& v :
             path_vertices(tg, rs_->paths(net)[static_cast<std::size_t>(p)])) {
          if (as_source) {
            sources.push_back({v, 0, static_cast<int>(source_info.size())});
            source_info.push_back({});
          } else {
            targets.push_back(v);
            target_info.push_back({});
          }
        }
      }
    };
    add_comp(comps[src_i], /*as_source=*/true);
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (i != src_i) add_comp(comps[i], /*as_source=*/false);
    }
    if (sources.empty()) {
      // Dead component: no pins and no on-track vertices can arise from
      // orphaned repair patches — drop its paths and continue.  Stable path
      // ids stay valid across removals, unlike positions.
      if (comps[src_i].pins.empty() && !comps[src_i].paths.empty()) {
        std::vector<std::uint64_t> doomed;
        for (int pidx : comps[src_i].paths) {
          doomed.push_back(
              rs_->path_ids(net)[static_cast<std::size_t>(pidx)]);
        }
        for (std::uint64_t id : doomed) rs_->remove_recorded_by_id(net, id);
        continue;
      }
      BONN_LOGF(obs::LogLevel::kDebug,
                "net %d: no sources (comp pins=%zu paths=%zu)", net,
                comps[src_i].pins.size(), comps[src_i].paths.size());
      return false;
    }
    if (targets.empty()) {
      BONN_LOGF(obs::LogLevel::kDebug, "net %d: no targets (comps=%zu)", net,
                comps.size());
      return false;
    }

    // ---- corridor (§4.4): global-routing tiles plus endpoint neighborhoods,
    // and the global route's layers plus neighbours (the layer dimension of
    // the 3D global solution guides detailed routing).
    std::vector<Rect> area;
    std::vector<char> allowed_layers;
    // Layer guidance pays off for long nets (it keeps them on the quiet
    // upper layers the global router chose); short nets need the freedom of
    // the full stack around the row clutter.
    bool restrict_layers = params.layer_corridor && rip_depth == 0;
    if (sh.global && sh.global_routes &&
        !(*sh.global_routes)[static_cast<std::size_t>(net)].edges.empty()) {
      const auto& sol = (*sh.global_routes)[static_cast<std::size_t>(net)];
      area = sh.global->corridor(sol, params.corridor_halo);
      int planar_edges = 0;
      for (const auto& [e, sx] : sol.edges) {
        (void)sx;
        if (!sh.global->graph().edge(e).via) ++planar_edges;
      }
      restrict_layers = restrict_layers && planar_edges >= 4;
      allowed_layers.assign(static_cast<std::size_t>(tg.num_layers()), 0);
      auto allow = [&](int l) {
        for (int d = -1; d <= 1; ++d) {
          const int x = l + d;
          if (x >= 0 && x < tg.num_layers()) {
            allowed_layers[static_cast<std::size_t>(x)] = 1;
          }
        }
      };
      for (const auto& [e, sx] : sol.edges) {
        (void)sx;
        const GlobalEdge& ge = sh.global->graph().edge(e);
        allow(ge.layer);
        if (ge.via) allow(ge.layer + 1);
      }
      // Endpoints must stay reachable regardless of the route's layer span.
      for (const SearchSource& ss : sources) allow(ss.v.layer);
      for (const TrackVertex& tv : targets) allow(tv.layer);
      // Via stacks pass through every layer in between: fill the span.
      int lo = tg.num_layers(), hi = -1;
      for (int l = 0; l < tg.num_layers(); ++l) {
        if (allowed_layers[static_cast<std::size_t>(l)]) {
          lo = std::min(lo, l);
          hi = std::max(hi, l);
        }
      }
      for (int l = lo; l <= hi; ++l) {
        allowed_layers[static_cast<std::size_t>(l)] = 1;
      }
    }
    // Corridor tiles only (for the π_P bounds) — the endpoint bounding box
    // is appended afterwards and must not glue the BFS together.
    const std::vector<Rect> corridor_only = area;
    Rect bbox;
    for (const SearchSource& s : sources) {
      bbox = bbox.hull(Rect::from_points(tg.vertex_pt(s.v), tg.vertex_pt(s.v)));
    }
    for (const TrackVertex& t : targets) {
      bbox = bbox.hull(Rect::from_points(tg.vertex_pt(t), tg.vertex_pt(t)));
    }
    area.push_back(bbox.expanded(800 + 600 * rip_depth +
                                 500 * params.corridor_halo));
    // Last-resort rounds search the whole die (§4.4: "reconsidered later
    // with higher ripup effort and extended routing area").
    if (params.corridor_halo >= 3) area.push_back(chip.die);

    // ---- future cost: target component bounding rects per layer.
    std::vector<RectL> trects;
    {
      std::map<int, Rect> by_layer;
      for (const TrackVertex& t : targets) {
        const Point p = tg.vertex_pt(t);
        auto& r = by_layer[t.layer];
        r = r.hull(Rect::from_points(p, p));
      }
      for (auto& [l, r] : by_layer) trects.push_back({r, l});
    }
    FutureCost pi(trects, tg.num_layers(), params.search.via_cost);
    // π_P for connections whose corridor detours (§4.1 policy).
    if (corridor_only.size() > 2) {
      Coord direct = std::numeric_limits<Coord>::max();
      for (const SearchSource& s : sources) {
        direct = std::min(direct, pi(tg.vertex_ptl(s.v)));
      }
      std::vector<bool> is_target_tile(corridor_only.size(), false);
      for (std::size_t i = 0; i < corridor_only.size(); ++i) {
        for (const TrackVertex& t : targets) {
          if (corridor_only[i].contains(tg.vertex_pt(t))) {
            is_target_tile[i] = true;
            break;
          }
        }
      }
      auto bounds = corridor_tile_bounds(corridor_only, is_target_tile);
      Coord max_bound = 0;
      for (const auto& [r, b] : bounds) max_bound = std::max(max_bound, b);
      if (params.use_pi_p && direct > 0 &&
          static_cast<double>(max_bound) >
              params.detour_for_pi_p * static_cast<double>(direct)) {
        pi.add_tile_bounds(std::move(bounds));
        ++stats.pi_p_used;
        static obs::Counter& c = obs::counter("detailed.pi_p_used");
        c.add();
      }
    }

    // ---- search, verify, and retry with banned regions (§4.4): the fast
    // grid is optimistic about swept jogs, so a found path is re-checked by
    // the rule checker; violating spots are banned and the search retried.
    std::optional<FoundPath> fp;
    std::vector<RoutedPath> new_paths;
    std::vector<int> commit_access_pins;
    std::vector<int> blockers;
    std::vector<RectL> banned_local;
    for (int attempt = 0; attempt < 3; ++attempt) {
      new_paths.clear();
      commit_access_pins.clear();
      blockers.clear();
      {
        // Hold the components' shapes out of the space for the search
        // (§4.4) in a nested transaction that rolls back afterwards: the
        // row before-images restore the shape grid, one batched refresh the
        // fast grid, and nothing of the hold reaches the enclosing
        // transaction's journal or dirty region.  Pins and the net's own
        // wiring are removed in separate calls because remove_shapes
        // matches each shape's insertion level (kFixed for pins,
        // net_level(net) for wiring); the restore copies images back and
        // needs no level.  No transaction may open inside the hold; both
        // search cores are const.
        const std::vector<Shape> pin_shapes = chip.pin_shapes(net);
        std::vector<Shape> wiring;
        for (const RoutedPath& p : rs_->paths(net)) {
          for (const Shape& s : expand_path(p, chip.tech)) {
            wiring.push_back(s);
          }
        }
        RoutingTransaction hold(*rs_);
        rs_->remove_shapes(pin_shapes, kFixed);
        rs_->remove_shapes(wiring, rs_->net_level(net));

        SearchParams sp = params.search;
        sp.net = net;
        sp.wiretype = n.wiretype;
        if (!sh.spread_zones.empty()) sp.spread_zones = &sh.spread_zones;
        if (!banned_local.empty()) sp.banned = &banned_local;
        // Only the first (no-ripup) round is layer-restricted; widening
        // rounds explore the full stack.
        if (!allowed_layers.empty() && restrict_layers) {
          sp.allowed_layers = &allowed_layers;
        }
        // Chaos hook: a net-scoped `search` fault models the search core
        // dying on this net.  Thrown (not a quiet failure) so it unwinds to
        // the scheduler's recovered-error boundary and counts a quarantine
        // strike.
        if (BONN_FAULT_NET("search", net)) throw FaultInjected("search");
        fp = params.vertex_search
                 ? vsearch_.run(sources, targets, area, pi, sp, &stats.search)
                 : search_.run(sources, targets, area, pi, sp, &stats.search);
        // Explicit, so an audit failure or an injected txn_rollback fault
        // surfaces as a recoverable error; a throwing search rolls the hold
        // back in its destructor.
        hold.rollback();
      }
      if (!fp) break;

      // Assemble the would-be committed paths: main + access tails.
      new_paths.push_back(
          vertices_to_path(tg, fp->vertices, net, n.wiretype));
      if (fp->source_tag >= 0) {
        const EndpointInfo& ei =
            source_info[static_cast<std::size_t>(fp->source_tag)];
        if (ei.pin >= 0 &&
            sh.access_committed[static_cast<std::size_t>(ei.pin)] == 0) {
          new_paths.push_back(
              sh.catalogues[static_cast<std::size_t>(ei.pin)]
                           [static_cast<std::size_t>(ei.access)]
                  .path);
          new_paths.back().net = net;
          commit_access_pins.push_back(ei.pin);
          sh.selected[static_cast<std::size_t>(ei.pin)] = ei.access;
        }
      }
      if (fp->target_index >= 0) {
        const EndpointInfo& ei =
            target_info[static_cast<std::size_t>(fp->target_index)];
        if (ei.pin >= 0 &&
            sh.access_committed[static_cast<std::size_t>(ei.pin)] == 0) {
          new_paths.push_back(
              sh.catalogues[static_cast<std::size_t>(ei.pin)]
                           [static_cast<std::size_t>(ei.access)]
                  .path);
          new_paths.back().net = net;
          commit_access_pins.push_back(ei.pin);
          sh.selected[static_cast<std::size_t>(ei.pin)] = ei.access;
        }
      }

      // Verify with the rule checker; collect blockers and violating spots.
      std::vector<RectL> violating;
      for (const RoutedPath& p : new_paths) {
        for (const WireStick& w : p.wires) {
          const PlacementCheck pc =
              rs_->checker().check_wire(w, net, p.wiretype);
          if (!pc.allowed) {
            for (int b : pc.blocking_nets) blockers.push_back(b);
            if (pc.blocking_nets.empty()) blockers.push_back(-1);
            violating.push_back(
                {Rect::from_points(w.a, w.b).expanded(10), w.layer});
          }
        }
        for (const ViaStick& v : p.vias) {
          const PlacementCheck pc =
              rs_->checker().check_via(v, net, p.wiretype);
          if (!pc.allowed) {
            for (int b : pc.blocking_nets) blockers.push_back(b);
            if (pc.blocking_nets.empty()) blockers.push_back(-1);
            violating.push_back(
                {Rect::from_points(v.at, v.at).expanded(10), v.below});
            violating.push_back(
                {Rect::from_points(v.at, v.at).expanded(10), v.below + 1});
          }
        }
      }
      if (violating.empty()) break;  // clean path
      // Retry with banned spots whenever rip-up cannot help: no permission,
      // depth exhausted, or a *fixed* blocker (pins/blockages never rip;
      // nets outside the window's rip mask count as fixed too).
      bool fixed_blocked = false;
      for (int b : blockers) fixed_blocked |= !rippable(b);
      const bool retryable =
          attempt + 1 < 3 &&
          (fixed_blocked || allowed_ripup == 0 ||
           rip_depth >= params.max_rip_depth);
      if (!retryable) break;  // handled by the rip-up / commit logic below
      banned_local.insert(banned_local.end(), violating.begin(),
                          violating.end());
    }

    if (!fp) {
      BONN_LOGF(obs::LogLevel::kDebug, "net %d: search failed (%zu srcs %zu tgts)",
                net, sources.size(), targets.size());
      ++stats.connections_failed;
      static obs::Counter& c = obs::counter("detailed.connections_failed");
      c.add();
      return false;
    }

    std::sort(blockers.begin(), blockers.end());
    blockers.erase(std::unique(blockers.begin(), blockers.end()),
                   blockers.end());
    bool has_fixed_blocker = false;
    for (int b : blockers) has_fixed_blocker |= !rippable(b);

    if (!blockers.empty()) {
      const bool cannot_rip = allowed_ripup == 0 ||
                              rip_depth >= params.max_rip_depth ||
                              has_fixed_blocker;
      if (cannot_rip && !commit_despite_violations) {
        BONN_LOGF(obs::LogLevel::kDebug,
                  "net %d: blocked and cannot rip (%zu blockers, depth %d)",
                  net, blockers.size(), rip_depth);
        ++stats.connections_failed;
        static obs::Counter& c = obs::counter("detailed.connections_failed");
        c.add();
        return false;
      }
      if (cannot_rip) blockers.clear();  // commit; cleanup handles the rest
      static obs::Counter& c_rip = obs::counter("detailed.ripups");
      for (int b : blockers) {
        if (rippable(b) && b != net) {
          rip_net_tracked(b);
          ripped.insert(b);
          ++stats.ripups;
          c_rip.add();
        }
      }
    }

    for (const RoutedPath& p : new_paths) rs_->commit_path(p);
    RoutingTransaction* txn = RoutingTransaction::current(rs_);
    for (int pid : commit_access_pins) {
      sh.access_committed[static_cast<std::size_t>(pid)] = 1;
      // The committed access path is journaled wiring; a rollback removing
      // it must also clear the flag, or the pin would never re-commit.
      if (txn) {
        DetailedShared* shp = &sh;
        txn->on_rollback(
            [shp, pid] { shp->access_committed[static_cast<std::size_t>(pid)] = 0; });
      }
    }
    ++stats.connections_routed;
    static obs::Counter& c_ok = obs::counter("detailed.connections_routed");
    c_ok.add();
  }

  postprocess_net(net);

  // Reroute ripped victims (bounded rip-up sequence, §4.4).  The cascade is
  // all-or-nothing: a victim that cannot be rerouted cleanly fails the whole
  // attempt, and the enclosing transaction restores both the victim's old
  // wiring and this net's progress.  Ripping a routed net and leaving it
  // open would trade one blocked net for several opens.
  for (int b : ripped) {
    if (!connect_components(b, params, stats, rip_depth + 1,
                            /*entry=*/false)) {
      return false;
    }
  }
  return true;
}

void NetRouter::rip_net_tracked(int net) {
  const Net& n = rs_->chip().nets[static_cast<std::size_t>(net)];
  DetailedShared& sh = *shared_;
  if (RoutingTransaction* txn = RoutingTransaction::current(rs_)) {
    // A rollback restores the ripped wiring (including committed access
    // paths), so the per-pin bookkeeping must come back with it.
    struct PinState {
      int pid;
      std::vector<AccessPath> catalogue;
      int selected;
      char committed;
    };
    auto saved = std::make_shared<std::vector<PinState>>();
    for (int pid : n.pins) {
      const auto p = static_cast<std::size_t>(pid);
      saved->push_back(
          {pid, sh.catalogues[p], sh.selected[p], sh.access_committed[p]});
    }
    DetailedShared* shp = &sh;
    txn->on_rollback([shp, saved] {
      for (PinState& ps : *saved) {
        const auto p = static_cast<std::size_t>(ps.pid);
        shp->catalogues[p] = std::move(ps.catalogue);
        shp->selected[p] = ps.selected;
        shp->access_committed[p] = ps.committed;
      }
    });
  }
  rs_->rip_net(net);
  for (int pid : n.pins) {
    const auto p = static_cast<std::size_t>(pid);
    sh.access_committed[p] = 0;
    // Stale catalogues refer to the pre-rip routing space; regenerate
    // on demand (§4.3's dynamic path generation).
    sh.catalogues[p].clear();
    sh.selected[p] = -1;
  }
}

void NetRouter::precompute_access(const NetRouteParams& params) {
  BONN_TRACE_SPAN("detailed.precompute_access");
  const Chip& chip = rs_->chip();
  const Coord cluster_dist = 300;

  // Cluster pins by proximity (the circuit-class analogue of §4.3): a
  // simple sweep over anchors.
  std::vector<int> order(chip.pins.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Point pa = chip.pins[static_cast<std::size_t>(a)].anchor();
    const Point pb = chip.pins[static_cast<std::size_t>(b)].anchor();
    return std::pair{pa.y, pa.x} < std::pair{pb.y, pb.x};
  });
  std::vector<std::vector<int>> clusters;
  for (int pid : order) {
    const Point a = chip.pins[static_cast<std::size_t>(pid)].anchor();
    bool placed = false;
    for (auto it = clusters.rbegin(); it != clusters.rend(); ++it) {
      const Point b =
          chip.pins[static_cast<std::size_t>(it->back())].anchor();
      if (a.y - b.y > cluster_dist) break;  // sweep order: no more matches
      if (abs_diff(a.x, b.x) <= cluster_dist &&
          abs_diff(a.y, b.y) <= cluster_dist) {
        it->push_back(pid);
        placed = true;
        break;
      }
    }
    if (!placed) clusters.push_back({pid});
  }

  DetailedShared& sh = *shared_;
  for (const auto& cluster : clusters) {
    // Budget poll per cluster: access precompute runs before anything else
    // in the flow, so a short deadline must be able to stop it mid-way.
    // Skipped clusters only matter to an interrupted run (which defers all
    // its nets anyway); a resume replays the precompute from scratch.
    if (params.search.budget != nullptr && params.search.budget->stopped()) {
      break;
    }
    std::vector<std::vector<AccessPath>> cats;
    std::vector<int> pids;
    for (int pid : cluster) {
      const auto p = static_cast<std::size_t>(pid);
      if (sh.access_committed[p] != 0) continue;
      const Pin& pin = chip.pins[p];
      PinAccessParams ap = params.access;
      ap.wiretype = chip.nets[static_cast<std::size_t>(pin.net)].wiretype;
      if (ap.wiretype != 0) {
        ap.access_layers = std::max(ap.access_layers, 4);
        ap.layer_bonus = 600;
      }
      sh.catalogues[p] = access_.catalogue(pin, ap);
      cats.push_back(sh.catalogues[p]);
      pids.push_back(pid);
    }
    if (pids.empty()) continue;
    const auto sel = params.greedy_access
                         ? access_.greedy_selection(cats)
                         : access_.conflict_free_selection(cats);
    for (std::size_t i = 0; i < pids.size(); ++i) {
      sh.selected[static_cast<std::size_t>(pids[i])] = sel[i];
      if (sel[i] < 0) continue;
      // Commit the primary access path as a reservation (§4.3).  The
      // conflict-free selection is clean within the cluster; verify against
      // earlier clusters' reservations and fall back to the next clean
      // catalogue entry when needed.
      const int pin_net = chip.pins[static_cast<std::size_t>(pids[i])].net;
      auto is_clean = [&](const AccessPath& ap) {
        for (const WireStick& w : ap.path.wires) {
          if (!rs_->checker().check_wire(w, pin_net, ap.path.wiretype)
                   .allowed) {
            return false;
          }
        }
        for (const ViaStick& v : ap.path.vias) {
          if (!rs_->checker().check_via(v, pin_net, ap.path.wiretype)
                   .allowed) {
            return false;
          }
        }
        return true;
      };
      int pick = sel[i];
      if (!is_clean(cats[i][static_cast<std::size_t>(pick)])) {
        for (std::size_t a = 0; a < cats[i].size(); ++a) {
          if (is_clean(cats[i][a])) {
            pick = static_cast<int>(a);
            break;
          }
        }
      }
      sh.selected[static_cast<std::size_t>(pids[i])] = pick;
      const AccessPath& ap = cats[i][static_cast<std::size_t>(pick)];
      if (ap.path.empty()) {
        sh.access_committed[static_cast<std::size_t>(pids[i])] = 1;
        continue;
      }
      RoutedPath path = ap.path;
      path.net = pin_net;
      rs_->commit_path(path);
      sh.access_committed[static_cast<std::size_t>(pids[i])] = 1;
    }
  }
}

void NetRouter::postprocess_net(int net) {
  const Chip& chip = rs_->chip();
  const Net& n = chip.nets[static_cast<std::size_t>(net)];

  // Minimum-area patches: extend undersized metal components along the
  // preferred direction where legal.
  std::map<int, std::vector<Rect>> metal;
  for (int pid : n.pins) {
    for (const RectL& rl : chip.pins[static_cast<std::size_t>(pid)].shapes) {
      metal[rl.layer].push_back(rl.r);
    }
  }
  for (const RoutedPath& p : rs_->paths(net)) {
    for (const Shape& s : expand_path(p, chip.tech)) {
      if (is_wiring(s.global_layer)) {
        metal[wiring_of_global(s.global_layer)].push_back(s.rect);
      }
    }
  }
  for (auto& [layer, rects] : metal) {
    const WiringLayer& wl = chip.tech.wiring[static_cast<std::size_t>(layer)];
    if (wl.min_area <= 0) continue;
    for (const auto& comp : connected_components(rects)) {
      std::vector<Rect> crs;
      for (int i : comp) crs.push_back(rects[static_cast<std::size_t>(i)]);
      const std::int64_t area = union_area(crs);
      if (area >= wl.min_area) continue;
      // Patch: a preferred-direction stick through the component centre,
      // long enough to lift the union area over the minimum.
      Rect biggest = crs.front();
      for (const Rect& r : crs) {
        if (r.area() > biggest.area()) biggest = r;
      }
      const Coord need =
          (wl.min_area - area + wl.min_width - 1) / wl.min_width;
      const Point c = biggest.center();
      WireStick w;
      w.layer = layer;
      const Coord half = std::max<Coord>(need / 2 + 1, wl.min_seg_len / 2);
      if (wl.pref == Dir::kHorizontal) {
        w.a = {c.x - half, c.y};
        w.b = {c.x + half, c.y};
      } else {
        w.a = {c.x, c.y - half};
        w.b = {c.x, c.y + half};
      }
      if (rs_->checker().check_wire(w, net, n.wiretype).allowed) {
        RoutedPath patch;
        patch.net = net;
        patch.wiretype = n.wiretype;
        patch.wires.push_back(w);
        rs_->commit_path(patch);
      }
    }
  }
}

std::vector<int> NetRouter::route_order(const Chip& chip) {
  std::vector<int> order(chip.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  // Critical nets (and wide wires) first (§5.1), then by span ascending.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Net& na = chip.nets[static_cast<std::size_t>(a)];
    const Net& nb = chip.nets[static_cast<std::size_t>(b)];
    const bool ca = na.weight > 1.0 || na.wiretype != 0;
    const bool cb = nb.weight > 1.0 || nb.wiretype != 0;
    if (ca != cb) return ca;
    return hpwl(chip.net_terminals(a)) < hpwl(chip.net_terminals(b));
  });
  return order;
}

bool NetRouter::net_connected(int net) const {
  const Chip& chip = rs_->chip();
  return compute_components(chip, rs_->paths(net),
                            chip.nets[static_cast<std::size_t>(net)])
             .size() <= 1;
}

Rect NetRouter::net_reach_core(int net, int halo) const {
  const Chip& chip = rs_->chip();
  const Net& n = chip.nets[static_cast<std::size_t>(net)];
  Rect core;
  for (int pid : n.pins) {
    for (const RectL& rl : chip.pins[static_cast<std::size_t>(pid)].shapes) {
      core = core.hull(rl.r);
    }
  }
  for (const RoutedPath& p : rs_->paths(net)) {
    for (const Shape& s : expand_path(p, chip.tech)) core = core.hull(s.rect);
  }
  const DetailedShared& sh = *shared_;
  if (sh.global && sh.global_routes &&
      !(*sh.global_routes)[static_cast<std::size_t>(net)].edges.empty()) {
    const auto& sol = (*sh.global_routes)[static_cast<std::size_t>(net)];
    for (const Rect& r : sh.global->corridor(sol, halo)) core = core.hull(r);
  }
  return core;
}

}  // namespace bonn
