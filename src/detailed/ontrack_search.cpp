#include "src/detailed/ontrack_search.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"
#include "src/util/timer.hpp"

namespace bonn {

namespace {

constexpr Coord kInf = std::numeric_limits<Coord>::max() / 4;

/// A maximal usable run of stations on one track.  `gap_right` flags that
/// the edge from `hi` to the next run's first station needs verification by
/// the rule checker (fast-grid gap bit, Fig. 4's zigzag edge).
struct Run {
  int lo = 0, hi = -1;
  std::uint8_t min_field = FastGrid::kFree;
  bool gap_right = false;
  bool rips() const { return min_field != FastGrid::kFree; }
};

struct TrackInfo {
  int layer = -1;
  int track = -1;
  std::vector<Run> runs;          // sorted by lo, disjoint
  std::vector<char> via_done;     // per station, lazily sized
  std::vector<Coord> pi_cache;    // memoized future cost per station (-1 unset)

  int find_run(int station) const {
    int lo = 0, hi = static_cast<int>(runs.size()) - 1;
    while (lo <= hi) {
      const int mid = (lo + hi) / 2;
      if (runs[static_cast<std::size_t>(mid)].hi < station) {
        lo = mid + 1;
      } else if (runs[static_cast<std::size_t>(mid)].lo > station) {
        hi = mid - 1;
      } else {
        return mid;
      }
    }
    return -1;
  }
};

struct Label {
  int track_id = -1;
  int run_idx = -1;
  int anchor = -1;  ///< station index; d(u) = dist + |c_u - c_anchor|
  Coord dist = 0;
  int parent = -1;
  TrackVertex entry_from;  ///< vertex on the parent's run (invalid for roots)
  int source_tag = -1;
  bool induced = false;
};

struct Engine {
  const RoutingSpace* rs;
  const FutureCost* pi;
  const SearchParams* params;
  const std::vector<Rect>* area;
  SearchStats* stats;
  SearchStats local_stats;

  std::unordered_map<std::int64_t, int> track_ids;
  std::vector<TrackInfo> tracks;
  std::vector<Label> labels;
  /// Dominance sets per (track_id, run_idx).
  std::unordered_map<std::int64_t, std::vector<std::pair<int, Coord>>> delta;
  std::unordered_map<std::uint64_t, int> target_set;  ///< vertex_key -> index
  using QE = std::pair<Coord, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
  /// π breakpoint coordinates per axis (pref-direction projections).
  std::vector<Coord> bp[2];  // [0]: x-axis (horizontal layers), [1]: y-axis

  static std::int64_t tkey(int layer, int track) {
    return static_cast<std::int64_t>(layer) * (1LL << 32) + track;
  }

  const std::vector<Coord>& stations(int layer) const {
    return rs->tg().stations(layer);
  }
  Coord station_coord(int layer, int s) const {
    return stations(layer)[static_cast<std::size_t>(s)];
  }

  Coord pi_at(int layer, int track, int station) const {
    return (*pi)(rs->tg().vertex_ptl({layer, track, station}));
  }

  /// Memoized π per (track, station): the future-cost evaluation dominates
  /// the label scans, and stations are revisited across many label pops.
  Coord pi_cached(int track_id, int station) {
    TrackInfo& ti = tracks[static_cast<std::size_t>(track_id)];
    if (ti.pi_cache.empty()) {
      ti.pi_cache.assign(stations(ti.layer).size(), -1);
    }
    Coord& slot = ti.pi_cache[static_cast<std::size_t>(station)];
    if (slot < 0) slot = pi_at(ti.layer, ti.track, station);
    return slot;
  }

  // ---- track/run construction ------------------------------------------
  int track_info(int layer, int track) {
    const std::int64_t key = tkey(layer, track);
    auto it = track_ids.find(key);
    if (it != track_ids.end()) return it->second;
    const int id = static_cast<int>(tracks.size());
    track_ids.emplace(key, id);
    tracks.push_back(build_track(layer, track));
    return id;
  }

  TrackInfo build_track(int layer, int track) {
    TrackInfo info;
    info.layer = layer;
    info.track = track;
    if (params->allowed_layers &&
        !(*params->allowed_layers)[static_cast<std::size_t>(layer)]) {
      return info;  // layer outside the corridor: no usable runs
    }
    const TrackGraph& tg = rs->tg();
    const Dir pref = tg.pref(layer);
    const Coord tcoord = tg.tracks(layer)[static_cast<std::size_t>(track)];

    // Allowed station index windows from the corridor rects.
    std::vector<std::pair<int, int>> windows;
    for (const Rect& r : *area) {
      if (!r.iv(orthogonal(pref)).contains(tcoord)) continue;
      const auto [slo, shi] = tg.station_range(layer, r.iv(pref));
      if (slo <= shi) windows.push_back({slo, shi});
    }
    std::sort(windows.begin(), windows.end());
    std::vector<std::pair<int, int>> merged;
    for (const auto& w : windows) {
      if (!merged.empty() && w.first <= merged.back().second + 1) {
        merged.back().second = std::max(merged.back().second, w.second);
      } else {
        merged.push_back(w);
      }
    }

    const int wt = params->wiretype;
    const RipupLevel rl = params->allowed_ripup;
    for (const auto& [wlo, whi] : merged) {
      Run cur;
      bool open = false;
      rs->fast().for_each_run(
          layer, track, wlo, whi,
          [&](Coord plo, Coord phi, std::uint64_t word) {
            ++local_stats.fastgrid_hits;
            const std::uint8_t field =
                FastGrid::wiring_field(word, wt, FastGrid::kWireF);
            const bool pass = FastGrid::passes(field, rl);
            const bool gap = FastGrid::gap_bit(word, wt);
            if (pass) {
              if (!open) {
                cur = Run{static_cast<int>(plo), static_cast<int>(phi) - 1,
                          field, false};
                open = true;
              } else {
                cur.hi = static_cast<int>(phi) - 1;
                cur.min_field = std::min(cur.min_field, field);
              }
              if (gap) {
                // Edge usability inside this piece is not implied by the
                // vertices; end the run here so crossing verifies with the
                // rule checker.
                cur.gap_right = true;
                info.runs.push_back(cur);
                open = false;
              }
            } else if (open) {
              info.runs.push_back(cur);
              open = false;
            }
          });
      if (open) info.runs.push_back(cur);
    }

    // Banned regions (verify-retry): carve their stations out of the runs.
    if (params->banned) {
      for (const RectL& b : *params->banned) {
        if (b.layer != layer) continue;
        if (!b.r.iv(orthogonal(pref)).contains(tcoord)) continue;
        const auto [blo, bhi] = tg.station_range(layer, b.r.iv(pref));
        if (blo > bhi) continue;
        std::vector<Run> next;
        for (const Run& r : info.runs) {
          if (r.hi < blo || r.lo > bhi) {
            next.push_back(r);
            continue;
          }
          if (r.lo < blo) {
            Run left = r;
            left.hi = blo - 1;
            left.gap_right = false;
            next.push_back(left);
          }
          if (r.hi > bhi) {
            Run right = r;
            right.lo = bhi + 1;
            next.push_back(right);
          }
        }
        info.runs = std::move(next);
      }
    }
    return info;
  }

  // ---- label bookkeeping -------------------------------------------------
  bool dominated(int track_id, int run_idx, int anchor, Coord dist,
                 int layer) {
    auto& dset = delta[tkey(track_id, run_idx)];
    const Coord ca = station_coord(layer, anchor);
    for (const auto& [a2, d2] : dset) {
      if (d2 + abs_diff(ca, station_coord(layer, a2)) <= dist) return true;
    }
    // Prune entries the new label dominates.
    std::erase_if(dset, [&](const std::pair<int, Coord>& e) {
      return dist + abs_diff(ca, station_coord(layer, e.first)) <= e.second;
    });
    dset.push_back({anchor, dist});
    return false;
  }

  Coord label_key(const Label& lb) {
    const TrackInfo& ti = tracks[static_cast<std::size_t>(lb.track_id)];
    const Run& run = ti.runs[static_cast<std::size_t>(lb.run_idx)];
    Coord best = kInf;
    for_each_candidate(ti, run, [&](int s) {
      const Coord f = lb.dist +
                      abs_diff(station_coord(ti.layer, s),
                               station_coord(ti.layer, lb.anchor)) +
                      pi_cached(lb.track_id, s);
      best = std::min(best, f);
    });
    return best;
  }

  /// Candidate stations where f = d + π can attain its minimum on the run:
  /// run ends, the anchor, and the π breakpoints inside.
  template <typename Fn>
  void for_each_candidate(const TrackInfo& ti, const Run& run, Fn fn) {
    fn(run.lo);
    if (run.hi != run.lo) fn(run.hi);
    const std::vector<Coord>& st = stations(ti.layer);
    const Coord clo = st[static_cast<std::size_t>(run.lo)];
    const Coord chi = st[static_cast<std::size_t>(run.hi)];
    const int axis = rs->tg().pref(ti.layer) == Dir::kHorizontal ? 0 : 1;
    auto lo_it = std::lower_bound(bp[axis].begin(), bp[axis].end(), clo);
    auto hi_it = std::upper_bound(bp[axis].begin(), bp[axis].end(), chi);
    for (auto it = lo_it; it != hi_it; ++it) {
      // Both neighbouring stations of the breakpoint.
      auto sit = std::lower_bound(st.begin(), st.end(), *it);
      if (sit != st.end()) {
        const int s = static_cast<int>(sit - st.begin());
        if (s >= run.lo && s <= run.hi) fn(s);
        if (s - 1 >= run.lo && s - 1 <= run.hi) fn(s - 1);
      } else if (!st.empty()) {
        const int s = static_cast<int>(st.size()) - 1;
        if (s >= run.lo && s <= run.hi) fn(s);
      }
    }
  }

  /// Wire spreading (§4.2): intervals inside a spread zone carry extra cost.
  Coord spread_cost(const TrackInfo& ti, int anchor) const {
    if (!params->spread_zones) return 0;
    const Point p = rs->tg().vertex_pt({ti.layer, ti.track, anchor});
    Coord cost = 0;
    for (const auto& [rect, c] : *params->spread_zones) {
      if (rect.contains(p)) cost += c;
    }
    return cost;
  }

  int add_label(Label lb) {
    const TrackInfo& ti = tracks[static_cast<std::size_t>(lb.track_id)];
    lb.dist += spread_cost(ti, lb.anchor);
    if (dominated(lb.track_id, lb.run_idx, lb.anchor, lb.dist, ti.layer)) {
      return -1;
    }
    const int id = static_cast<int>(labels.size());
    labels.push_back(lb);
    ++local_stats.labels_created;
    const Coord key = label_key(labels.back());
    if (key < kInf) {
      pq.push({key, id});
      ++local_stats.heap_pushes;
    }
    return id;
  }

  // ---- neighbour induction ----------------------------------------------
  void induce_along(int lid) {
    const Label lb = labels[static_cast<std::size_t>(lid)];
    TrackInfo& ti = tracks[static_cast<std::size_t>(lb.track_id)];
    const Run& run = ti.runs[static_cast<std::size_t>(lb.run_idx)];
    const std::vector<Coord>& st = stations(ti.layer);
    for (int dirn : {-1, +1}) {
      const int nidx = lb.run_idx + dirn;
      if (nidx < 0 || nidx >= static_cast<int>(ti.runs.size())) continue;
      const Run& next = ti.runs[static_cast<std::size_t>(nidx)];
      const int from_s = dirn > 0 ? run.hi : run.lo;
      const int to_s = dirn > 0 ? next.lo : next.hi;
      if (abs_diff(from_s, to_s) != 1) continue;  // hard blockage between
      const bool verify = dirn > 0 ? run.gap_right
                                   : next.gap_right;
      Coord penalty = next.rips() && !run.rips() ? params->rip_penalty : 0;
      if (verify) {
        ++local_stats.fastgrid_misses;
        WireStick stick;
        stick.layer = ti.layer;
        const Coord tcoord =
            rs->tg().tracks(ti.layer)[static_cast<std::size_t>(ti.track)];
        const Point a = rs->tg().pref(ti.layer) == Dir::kHorizontal
                            ? Point{st[static_cast<std::size_t>(from_s)], tcoord}
                            : Point{tcoord, st[static_cast<std::size_t>(from_s)]};
        const Point b = rs->tg().pref(ti.layer) == Dir::kHorizontal
                            ? Point{st[static_cast<std::size_t>(to_s)], tcoord}
                            : Point{tcoord, st[static_cast<std::size_t>(to_s)]};
        stick.a = a;
        stick.b = b;
        const PlacementCheck pc =
            rs->checker().check_wire(stick, params->net, params->wiretype);
        if (!pc.allowed) {
          if (!pc.rippable(params->allowed_ripup)) continue;
          penalty += params->rip_penalty;
        }
      }
      Label nl;
      nl.track_id = lb.track_id;
      nl.run_idx = nidx;
      nl.anchor = to_s;
      nl.dist = lb.dist +
                abs_diff(st[static_cast<std::size_t>(lb.anchor)],
                         st[static_cast<std::size_t>(from_s)]) +
                abs_diff(st[static_cast<std::size_t>(from_s)],
                         st[static_cast<std::size_t>(to_s)]) +
                penalty;
      nl.parent = lid;
      nl.entry_from = TrackVertex{ti.layer, ti.track, from_s};
      nl.source_tag = lb.source_tag;
      add_label(nl);
    }
  }

  void induce_jogs(int lid) {
    const Label lb = labels[static_cast<std::size_t>(lid)];
    const TrackInfo ti = tracks[static_cast<std::size_t>(lb.track_id)];
    const Run run = ti.runs[static_cast<std::size_t>(lb.run_idx)];
    const TrackGraph& tg = rs->tg();
    const std::vector<Coord>& st = stations(ti.layer);
    const int wt = params->wiretype;
    const RipupLevel rl = params->allowed_ripup;
    const Coord tcoord =
        tg.tracks(ti.layer)[static_cast<std::size_t>(ti.track)];

    for (int dt : {-1, +1}) {
      const int t2 = ti.track + dt;
      if (t2 < 0 ||
          t2 >= static_cast<int>(tg.tracks(ti.layer).size())) {
        continue;
      }
      const Coord t2coord =
          tg.tracks(ti.layer)[static_cast<std::size_t>(t2)];
      const int tid2 = track_info(ti.layer, t2);
      const TrackInfo& ti2 = tracks[static_cast<std::size_t>(tid2)];

      // Jog-usable stations: jog field passes on both tracks.  Collect the
      // pass-intervals of both words over the run span and intersect with
      // the landing runs.
      std::vector<std::pair<int, int>> ok1, ok2;
      auto collect = [&](int layer, int track,
                         std::vector<std::pair<int, int>>& out) {
        rs->fast().for_each_run(
            layer, track, run.lo, run.hi,
            [&](Coord plo, Coord phi, std::uint64_t word) {
              ++local_stats.fastgrid_hits;
              if (FastGrid::passes(
                      FastGrid::wiring_field(word, wt, FastGrid::kJogF), rl)) {
                if (!out.empty() && out.back().second + 1 == plo) {
                  out.back().second = static_cast<int>(phi) - 1;
                } else {
                  out.push_back({static_cast<int>(plo),
                                 static_cast<int>(phi) - 1});
                }
              }
            });
      };
      collect(ti.layer, ti.track, ok1);
      collect(ti.layer, t2, ok2);

      for (const Run& r2 : ti2.runs) {
        const int lo0 = std::max(run.lo, r2.lo);
        const int hi0 = std::min(run.hi, r2.hi);
        if (lo0 > hi0) continue;
        // Intersect [lo0, hi0] with ok1 and ok2.
        for (const auto& [a1, b1] : ok1) {
          for (const auto& [a2, b2] : ok2) {
            const int lo = std::max({lo0, a1, a2});
            const int hi = std::min({hi0, b1, b2});
            if (lo > hi) continue;
            const int anchor2 = std::clamp(lb.anchor, lo, hi);
            Coord penalty = r2.rips() && !run.rips() ? params->rip_penalty : 0;
            (void)tcoord;
            Label nl;
            nl.track_id = tid2;
            nl.run_idx = static_cast<int>(&r2 - ti2.runs.data());
            nl.anchor = anchor2;
            nl.dist = lb.dist +
                      abs_diff(st[static_cast<std::size_t>(lb.anchor)],
                               st[static_cast<std::size_t>(anchor2)]) +
                      params->jog_penalty * abs_diff(tcoord, t2coord) + penalty;
            nl.parent = lid;
            nl.entry_from = TrackVertex{ti.layer, ti.track, anchor2};
            nl.source_tag = lb.source_tag;
            add_label(nl);
          }
        }
      }
    }
  }

  void expand_vias(int lid, int station, Coord g) {
    // Copy: add_label/track_info below may reallocate labels_/tracks_.
    const Label lb = labels[static_cast<std::size_t>(lid)];
    const int layer = tracks[static_cast<std::size_t>(lb.track_id)].layer;
    const int track = tracks[static_cast<std::size_t>(lb.track_id)].track;
    const TrackGraph& tg = rs->tg();
    const TrackVertex u{layer, track, station};
    const int wt = params->wiretype;
    const RipupLevel rl = params->allowed_ripup;

    auto try_via = [&](const TrackVertex& base, const TrackVertex& dest,
                       std::uint8_t level) {
      if (!dest.valid()) return;
      if (!FastGrid::passes(level, rl)) return;
      const int tid2 = track_info(dest.layer, dest.track);
      const int ridx =
          tracks[static_cast<std::size_t>(tid2)].find_run(dest.station);
      if (ridx < 0) return;
      Coord penalty = (level != FastGrid::kFree) ? params->rip_penalty : 0;
      if (tracks[static_cast<std::size_t>(tid2)]
              .runs[static_cast<std::size_t>(ridx)]
              .rips()) {
        penalty = std::max(penalty, params->rip_penalty);
      }
      Label nl;
      nl.track_id = tid2;
      nl.run_idx = ridx;
      nl.anchor = dest.station;
      nl.dist = g + params->via_cost + penalty;
      nl.parent = lid;
      nl.entry_from = base;
      nl.source_tag = lb.source_tag;
      add_label(nl);
    };

    if (u.layer + 1 < tg.num_layers()) {
      ++local_stats.fastgrid_hits;
      try_via(u, tg.via_up(u), rs->fast().via_level(u, wt));
    }
    if (u.layer > 0) {
      const TrackVertex down = tg.via_dn(u);
      if (down.valid()) {
        ++local_stats.fastgrid_hits;
        try_via(u, down, rs->fast().via_level(down, wt));
      }
    }
  }

  // ---- main loop ---------------------------------------------------------
  std::optional<FoundPath> search(std::span<const SearchSource> sources,
                                  std::span<const TrackVertex> targets) {
    // π breakpoints: pref-axis projections of target rects are implicit in
    // FutureCost; we conservatively use the targets' coordinates.
    for (const TrackVertex& t : targets) {
      if (!t.valid()) continue;
      const Point p = rs->tg().vertex_pt(t);
      bp[0].push_back(p.x);
      bp[1].push_back(p.y);
      target_set.emplace(vertex_key(t),
                         static_cast<int>(&t - targets.data()));
    }
    for (auto& v : bp) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    for (const SearchSource& src : sources) {
      if (!src.v.valid()) continue;
      const int tid = track_info(src.v.layer, src.v.track);
      const TrackInfo& ti = tracks[static_cast<std::size_t>(tid)];
      const int ridx = ti.find_run(src.v.station);
      if (ridx < 0) continue;
      Label root;
      root.track_id = tid;
      root.run_idx = ridx;
      root.anchor = src.v.station;
      root.dist = src.offset +
                  (ti.runs[static_cast<std::size_t>(ridx)].rips()
                       ? params->rip_penalty
                       : 0);
      root.source_tag = src.tag;
      add_label(root);
    }

    while (!pq.empty()) {
      const auto [key, lid] = pq.top();
      pq.pop();
      if (search_limit_reached(++local_stats.pops, *params)) break;
      if (!labels[static_cast<std::size_t>(lid)].induced) {
        induce_along(lid);
        induce_jogs(lid);
        labels[static_cast<std::size_t>(lid)].induced = true;
      }

      // Expand the equality front J_I(key): stations with d + π <= key not
      // yet expanded.  (Copies below: expand_vias may reallocate
      // labels_/tracks_.)
      const Label lbc = labels[static_cast<std::size_t>(lid)];
      const int layer = tracks[static_cast<std::size_t>(lbc.track_id)].layer;
      const int track = tracks[static_cast<std::size_t>(lbc.track_id)].track;
      const Run run = tracks[static_cast<std::size_t>(lbc.track_id)]
                          .runs[static_cast<std::size_t>(lbc.run_idx)];
      if (tracks[static_cast<std::size_t>(lbc.track_id)].via_done.empty()) {
        tracks[static_cast<std::size_t>(lbc.track_id)]
            .via_done.assign(stations(layer).size(), 0);
      }
      const std::vector<Coord>& st = stations(layer);
      Coord next_key = kInf;
      std::optional<FoundPath> result;
      for (int s = run.lo; s <= run.hi; ++s) {
        const Coord g = lbc.dist + abs_diff(st[static_cast<std::size_t>(s)],
                                            st[static_cast<std::size_t>(
                                                lbc.anchor)]);
        const Coord f = g + pi_cached(lbc.track_id, s);
        if (tracks[static_cast<std::size_t>(lbc.track_id)]
                .via_done[static_cast<std::size_t>(s)]) {
          continue;
        }
        if (f > key) {
          next_key = std::min(next_key, f);
          continue;
        }
        tracks[static_cast<std::size_t>(lbc.track_id)]
            .via_done[static_cast<std::size_t>(s)] = 1;
        ++local_stats.station_expansions;
        const auto t_it = target_set.find(vertex_key({layer, track, s}));
        if (t_it != target_set.end()) {
          FoundPath fp;
          fp.cost = g;
          fp.target_index = t_it->second;
          fp.source_tag = lbc.source_tag;
          // Reconstruct corner vertices.
          std::vector<TrackVertex> verts;
          verts.push_back({layer, track, s});
          int cur = lid;
          while (cur >= 0) {
            const Label& L = labels[static_cast<std::size_t>(cur)];
            const TrackInfo& lt = tracks[static_cast<std::size_t>(L.track_id)];
            const TrackVertex av{lt.layer, lt.track, L.anchor};
            if (!(verts.back() == av)) verts.push_back(av);
            if (L.entry_from.valid() && !(verts.back() == L.entry_from)) {
              verts.push_back(L.entry_from);
            }
            cur = L.parent;
          }
          std::reverse(verts.begin(), verts.end());
          fp.vertices = std::move(verts);
          result = std::move(fp);
          break;
        }
        expand_vias(lid, s, g);
      }
      if (result) {
        flush_stats();
        return result;
      }
      if (next_key < kInf) {
        pq.push({next_key, lid});
        ++local_stats.heap_pushes;
      }
    }
    flush_stats();
    return std::nullopt;
  }

  void flush_stats() {
    if (stats) {
      stats->labels_created += local_stats.labels_created;
      stats->pops += local_stats.pops;
      stats->heap_pushes += local_stats.heap_pushes;
      stats->station_expansions += local_stats.station_expansions;
      stats->fastgrid_hits += local_stats.fastgrid_hits;
      stats->fastgrid_misses += local_stats.fastgrid_misses;
    }
    // Mirror into the shared fast-grid counters (Fig. 4 statistic).
    rs->fast().record_hits(
        static_cast<std::uint64_t>(local_stats.fastgrid_hits));
    rs->fast().record_misses(
        static_cast<std::uint64_t>(local_stats.fastgrid_misses));
    // One registry update per search, not per pop: the hot loop stays
    // allocation- and atomic-free.
    static obs::Counter& c_labels = obs::counter("detailed.labels_created");
    static obs::Counter& c_pops = obs::counter("detailed.interval_pops");
    static obs::Counter& c_push = obs::counter("detailed.heap_pushes");
    static obs::Counter& c_exp = obs::counter("detailed.station_expansions");
    static obs::Counter& c_hits = obs::counter("fastgrid.hits");
    static obs::Counter& c_miss = obs::counter("fastgrid.misses");
    c_labels.add(local_stats.labels_created);
    c_pops.add(local_stats.pops);
    c_push.add(local_stats.heap_pushes);
    c_exp.add(local_stats.station_expansions);
    c_hits.add(local_stats.fastgrid_hits);
    c_miss.add(local_stats.fastgrid_misses);
  }
};

}  // namespace

std::optional<FoundPath> OnTrackSearch::run(
    std::span<const SearchSource> sources, std::span<const TrackVertex> targets,
    const std::vector<Rect>& area, const FutureCost& pi,
    const SearchParams& params, SearchStats* stats) const {
  BONN_CHECK_MSG(rs_->fast().caches(params.wiretype),
                 "on-track search requires a fast-grid-cached wiretype");
  Engine engine{};
  engine.rs = rs_;
  engine.pi = &pi;
  engine.params = &params;
  engine.area = &area;
  engine.stats = stats;
  const Timer timer;
  auto result = engine.search(sources, targets);
  static obs::Histogram& h_us = obs::histogram("detailed.search_micros");
  static obs::Histogram& h_pops = obs::histogram("detailed.pops_per_search");
  h_us.record(static_cast<std::int64_t>(timer.seconds() * 1e6));
  h_pops.record(engine.local_stats.pops);
  return result;
}

}  // namespace bonn
