#include "src/detailed/vertex_search.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace bonn {

namespace {

constexpr Coord kInf = std::numeric_limits<Coord>::max() / 4;

std::int64_t vkey(const TrackVertex& v) {
  return (static_cast<std::int64_t>(v.layer) * (1LL << 24) + v.track) *
             (1LL << 24) +
         v.station;
}

struct NodeState {
  Coord dist = kInf;
  std::int64_t parent = -1;
  int source_tag = -1;
  bool settled = false;
};

}  // namespace

std::optional<FoundPath> VertexSearch::run(
    std::span<const SearchSource> sources, std::span<const TrackVertex> targets,
    const std::vector<Rect>& area, const FutureCost& pi,
    const SearchParams& params, SearchStats* stats) const {
  const TrackGraph& tg = rs_->tg();
  const FastGrid& fg = rs_->fast();
  const int wt = params.wiretype;
  const RipupLevel rl = params.allowed_ripup;
  SearchStats local{};
  auto flush_stats = [&] {
    if (stats) {
      stats->labels_created += local.labels_created;
      stats->pops += local.pops;
      stats->heap_pushes += local.heap_pushes;
      stats->station_expansions += local.station_expansions;
      stats->fastgrid_hits += local.fastgrid_hits;
      stats->fastgrid_misses += local.fastgrid_misses;
    }
    // Same registry names as the interval search: the two engines are
    // interchangeable, so their work lands in one set of counters.
    static obs::Counter& c_labels = obs::counter("detailed.labels_created");
    static obs::Counter& c_pops = obs::counter("detailed.interval_pops");
    static obs::Counter& c_push = obs::counter("detailed.heap_pushes");
    static obs::Counter& c_hits = obs::counter("fastgrid.hits");
    static obs::Counter& c_miss = obs::counter("fastgrid.misses");
    c_labels.add(local.labels_created);
    c_pops.add(local.pops);
    c_push.add(local.heap_pushes);
    c_hits.add(local.fastgrid_hits);
    c_miss.add(local.fastgrid_misses);
  };

  std::unordered_map<std::int64_t, NodeState> nodes;
  std::unordered_map<std::int64_t, TrackVertex> verts;
  std::unordered_map<std::int64_t, int> target_idx;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].valid()) {
      target_idx.emplace(vkey(targets[i]), static_cast<int>(i));
    }
  }

  auto in_area = [&](const TrackVertex& v) {
    const Point p = tg.vertex_pt(v);
    for (const Rect& r : area) {
      if (r.contains(p)) return true;
    }
    return false;
  };
  auto wire_field = [&](const TrackVertex& v) {
    ++local.fastgrid_hits;
    return FastGrid::wiring_field(fg.word(v.layer, v.track, v.station), wt,
                                  FastGrid::kWireF);
  };
  auto jog_field = [&](const TrackVertex& v) {
    ++local.fastgrid_hits;
    return FastGrid::wiring_field(fg.word(v.layer, v.track, v.station), wt,
                                  FastGrid::kJogF);
  };
  auto banned = [&](const TrackVertex& v) {
    if (!params.banned) return false;
    const Point p = tg.vertex_pt(v);
    for (const RectL& b : *params.banned) {
      if (b.layer == v.layer && b.r.contains(p)) return true;
    }
    return false;
  };
  auto layer_ok = [&](const TrackVertex& v) {
    return !params.allowed_layers ||
           (*params.allowed_layers)[static_cast<std::size_t>(v.layer)];
  };
  auto usable = [&](const TrackVertex& v) {
    return layer_ok(v) && in_area(v) && !banned(v) &&
           FastGrid::passes(wire_field(v), rl);
  };

  using QE = std::pair<Coord, std::int64_t>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;

  auto zone_cost = [&](const TrackVertex& v) {
    if (!params.spread_zones) return Coord{0};
    const Point p = tg.vertex_pt(v);
    Coord cost = 0;
    for (const auto& [rect, c] : *params.spread_zones) {
      if (rect.contains(p)) cost += c;
    }
    return cost;
  };
  auto relax = [&](const TrackVertex& v, Coord d, std::int64_t parent,
                   int tag) {
    d += zone_cost(v);
    const std::int64_t key = vkey(v);
    auto& ns = nodes[key];
    verts.emplace(key, v);
    if (d < ns.dist) {
      ns.dist = d;
      ns.parent = parent;
      ns.source_tag = tag;
      ++local.labels_created;
      pq.push({d + pi(tg.vertex_ptl(v)), key});
      ++local.heap_pushes;
    }
  };

  for (const SearchSource& s : sources) {
    if (!s.v.valid() || !usable(s.v)) continue;
    Coord d = s.offset;
    if (wire_field(s.v) != FastGrid::kFree) d += params.rip_penalty;
    relax(s.v, d, -1, s.tag);
  }

  while (!pq.empty()) {
    const auto [f, key] = pq.top();
    pq.pop();
    auto& ns = nodes[key];
    if (ns.settled) continue;
    ns.settled = true;
    if (search_limit_reached(++local.pops, params)) break;
    ++local.station_expansions;
    const TrackVertex v = verts[key];

    const auto t_it = target_idx.find(key);
    if (t_it != target_idx.end()) {
      FoundPath fp;
      fp.cost = ns.dist;
      fp.target_index = t_it->second;
      fp.source_tag = ns.source_tag;
      std::int64_t cur = key;
      std::vector<TrackVertex> path;
      while (cur >= 0) {
        path.push_back(verts[cur]);
        cur = nodes[cur].parent;
      }
      std::reverse(path.begin(), path.end());
      // Compress collinear same-track vertices to corners.
      std::vector<TrackVertex> corners;
      for (const TrackVertex& p : path) {
        while (corners.size() >= 2) {
          const TrackVertex& a = corners[corners.size() - 2];
          const TrackVertex& b = corners.back();
          if (a.layer == b.layer && b.layer == p.layer && a.track == b.track &&
              b.track == p.track) {
            corners.pop_back();
          } else {
            break;
          }
        }
        corners.push_back(p);
      }
      fp.vertices = std::move(corners);
      flush_stats();
      return fp;
    }

    const auto& st = tg.stations(v.layer);
    const Coord c_v = st[static_cast<std::size_t>(v.station)];
    const std::uint8_t field_v = wire_field(v);

    // Along-track neighbours.
    for (int ds : {-1, +1}) {
      const int s2 = v.station + ds;
      if (s2 < 0 || s2 >= static_cast<int>(st.size())) continue;
      const TrackVertex u{v.layer, v.track, s2};
      if (!usable(u)) continue;
      // Gap bit on the left vertex of the edge: verify with the checker.
      const TrackVertex left = ds > 0 ? v : u;
      ++local.fastgrid_hits;
      Coord penalty = 0;
      if (FastGrid::gap_bit(fg.word(left.layer, left.track, left.station),
                            wt)) {
        ++local.fastgrid_misses;
        const Coord tcoord =
            tg.tracks(v.layer)[static_cast<std::size_t>(v.track)];
        const bool horiz = tg.pref(v.layer) == Dir::kHorizontal;
        WireStick stick;
        stick.layer = v.layer;
        stick.a = horiz ? Point{c_v, tcoord} : Point{tcoord, c_v};
        stick.b = horiz ? Point{st[static_cast<std::size_t>(s2)], tcoord}
                        : Point{tcoord, st[static_cast<std::size_t>(s2)]};
        const PlacementCheck pc =
            rs_->checker().check_wire(stick, params.net, wt);
        if (!pc.allowed) {
          if (!pc.rippable(rl)) continue;
          penalty += params.rip_penalty;
        }
      }
      const std::uint8_t field_u = wire_field(u);
      if (field_u != FastGrid::kFree && field_v == FastGrid::kFree) {
        penalty += params.rip_penalty;
      }
      relax(u, ns.dist + abs_diff(c_v, st[static_cast<std::size_t>(s2)]) +
                   penalty,
            key, ns.source_tag);
    }

    // Jogs to adjacent tracks.
    for (int dt : {-1, +1}) {
      const int t2 = v.track + dt;
      if (t2 < 0 || t2 >= static_cast<int>(tg.tracks(v.layer).size())) {
        continue;
      }
      const TrackVertex u{v.layer, t2, v.station};
      if (!usable(u)) continue;
      if (!FastGrid::passes(jog_field(v), rl) ||
          !FastGrid::passes(jog_field(u), rl)) {
        continue;
      }
      const Coord dtc =
          abs_diff(tg.tracks(v.layer)[static_cast<std::size_t>(v.track)],
                   tg.tracks(v.layer)[static_cast<std::size_t>(t2)]);
      Coord penalty = 0;
      if (wire_field(u) != FastGrid::kFree && field_v == FastGrid::kFree) {
        penalty += params.rip_penalty;
      }
      relax(u, ns.dist + params.jog_penalty * dtc + penalty, key,
            ns.source_tag);
    }

    // Vias.
    if (v.layer + 1 < tg.num_layers()) {
      const TrackVertex u = tg.via_up(v);
      ++local.fastgrid_hits;
      if (u.valid() && usable(u) &&
          FastGrid::passes(fg.via_level(v, wt), rl)) {
        Coord penalty =
            fg.via_level(v, wt) != FastGrid::kFree ? params.rip_penalty : 0;
        if (wire_field(u) != FastGrid::kFree && field_v == FastGrid::kFree) {
          penalty += params.rip_penalty;
        }
        relax(u, ns.dist + params.via_cost + penalty, key, ns.source_tag);
      }
    }
    if (v.layer > 0) {
      const TrackVertex u = tg.via_dn(v);
      ++local.fastgrid_hits;
      if (u.valid() && usable(u) &&
          FastGrid::passes(fg.via_level(u, wt), rl)) {
        Coord penalty =
            fg.via_level(u, wt) != FastGrid::kFree ? params.rip_penalty : 0;
        if (wire_field(u) != FastGrid::kFree && field_v == FastGrid::kFree) {
          penalty += params.rip_penalty;
        }
        relax(u, ns.dist + params.via_cost + penalty, key, ns.source_tag);
      }
    }
  }

  flush_stats();
  return std::nullopt;
}

}  // namespace bonn
