#include "src/drc/checker.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "src/util/assert.hpp"

namespace bonn {

namespace {

/// floor(sqrt(x)) for x >= 0.
Coord isqrt(std::int64_t x) {
  if (x <= 0) return 0;
  auto r = static_cast<Coord>(std::sqrt(static_cast<double>(x)));
  while (r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// Only pieces with equal keys merge, and a merge keeps the key.
auto merge_key(const GridShape& g) {
  return std::tie(g.net, g.kind, g.cls, g.rule_width);
}

/// Two pieces of one key merge when their union is again a rect.
bool unites(const Rect& a, const Rect& b) {
  const bool same_y = a.ylo == b.ylo && a.yhi == b.yhi;
  const bool same_x = a.xlo == b.xlo && a.xhi == b.xhi;
  return (same_y && a.x_iv().touches(b.x_iv())) ||
         (same_x && a.y_iv().touches(b.y_iv())) || a.contains(b) ||
         b.contains(a);
}

/// The earlier piece in list order absorbs the later one.
void absorb(GridShape& earlier, const GridShape& later) {
  earlier.rect = earlier.rect.hull(later.rect);
  earlier.ripup = std::min(earlier.ripup, later.ripup);
}

/// A model's extent on a line's axes: along relative to the reference
/// point, cross absolute on the line at `cross`.
std::pair<Interval, Interval> line_extent(const WireModel& model,
                                          bool line_horizontal, Coord cross) {
  const Interval along = line_horizontal ? model.expand.x_iv()
                                         : model.expand.y_iv();
  const Interval cross_rel = line_horizontal ? model.expand.y_iv()
                                             : model.expand.x_iv();
  return {along, {cross + cross_rel.lo, cross + cross_rel.hi}};
}

/// Rip-up level of a blocking shape: pins and blockages are fixed; other
/// owned shapes keep their rip-up level.
RipupLevel blocker_level(const GridShape& gs) {
  const bool fixed_kind =
      gs.kind == ShapeKind::kPin || gs.kind == ShapeKind::kBlockage;
  return (gs.net >= 0 && !fixed_kind) ? gs.ripup : kFixed;
}

}  // namespace

namespace detail {

// Replays "merge the first mergeable pair, restart" one key at a time.  Keys
// never interact, so each key's merges happen in the same sequence as in the
// interleaved list.  Within a key, the cursor i keeps the invariant that no
// piece before it has a partner: when i absorbs its first partner j, only the
// grown piece can have gained partners, and the restart loop's next pair is
// (k, i) for the first earlier partner k, if there is one.
void merge_pieces(std::vector<GridShape>& pieces) {
  const std::size_t n = pieces.size();
  if (n < 2) return;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return merge_key(pieces[a]) < merge_key(pieces[b]);
                   });
  std::vector<char> absorbed(n, 0);
  std::vector<std::size_t> live;  // one key's unabsorbed pieces, in order
  for (std::size_t lo = 0, hi = 0; lo < n; lo = hi) {
    while (hi < n && merge_key(pieces[order[hi]]) ==
                         merge_key(pieces[order[lo]])) {
      ++hi;
    }
    live.assign(order.begin() + static_cast<std::ptrdiff_t>(lo),
                order.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto erase_live = [&](std::size_t at) {
      absorbed[live[at]] = 1;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    };
    std::size_t i = 0;
    while (i < live.size()) {
      std::size_t j = i + 1;
      while (j < live.size() &&
             !unites(pieces[live[i]].rect, pieces[live[j]].rect)) {
        ++j;
      }
      if (j == live.size()) {
        ++i;
        continue;
      }
      absorb(pieces[live[i]], pieces[live[j]]);
      erase_live(j);
      for (std::size_t k = 0; k < i;) {
        if (!unites(pieces[live[k]].rect, pieces[live[i]].rect)) {
          ++k;
          continue;
        }
        absorb(pieces[live[k]], pieces[live[i]]);
        erase_live(i);
        i = k;
        k = 0;
      }
    }
  }
  std::size_t kept = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!absorbed[p]) pieces[kept++] = pieces[p];
  }
  pieces.resize(kept);
}

}  // namespace detail

void PlacementCheck::merge(const PlacementCheck& o) {
  allowed = allowed && o.allowed;
  min_blocker_ripup = std::min(min_blocker_ripup, o.min_blocker_ripup);
  for (int n : o.blocking_nets) {
    if (std::find(blocking_nets.begin(), blocking_nets.end(), n) ==
        blocking_nets.end()) {
      blocking_nets.push_back(n);
    }
  }
}

Coord DrcChecker::required_between(const Shape& cand,
                                   const GridShape& gs) const {
  if (is_wiring(cand.global_layer)) {
    const int w = wiring_of_global(cand.global_layer);
    const Coord prl = std::max(run_length(cand.rect.x_iv(), gs.rect.x_iv()),
                               run_length(cand.rect.y_iv(), gs.rect.y_iv()));
    const Coord w1 = cand.rect.rule_width();
    const Coord w2 = gs.rule_width;
    return std::max(tech_->table(w, cand.cls).required(w1, w2, prl),
                    tech_->table(w, gs.cls).required(w1, w2, prl));
  }
  // Via layer: cut-to-cut and cut-to-projection rules.
  const ViaLayer& vl = tech_->via_layers[static_cast<std::size_t>(
      via_of_global(cand.global_layer))];
  const bool cand_proj = cand.kind == ShapeKind::kViaProj;
  const bool gs_proj = gs.kind == ShapeKind::kViaProj;
  if (cand_proj && gs_proj) return 0;
  if (cand_proj || gs_proj) return vl.interlayer_spacing;
  return vl.cut_spacing;
}

Coord DrcChecker::window_margin(int global_layer) const {
  if (is_wiring(global_layer))
    return tech_->max_spacing(wiring_of_global(global_layer));
  const ViaLayer& vl = tech_->via_layers[static_cast<std::size_t>(
      via_of_global(global_layer))];
  return std::max(vl.cut_spacing, vl.interlayer_spacing);
}

void DrcChecker::merged_pieces(int global_layer, const Rect& window,
                               std::vector<GridShape>& pieces) const {
  pieces.clear();
  grid_->query(global_layer, window,
               [&](const GridShape& gs) { pieces.push_back(gs); });
  detail::merge_pieces(pieces);
}

PlacementCheck DrcChecker::check_shape(const Shape& cand) const {
  PlacementCheck result;
  std::vector<GridShape> pieces;
  merged_pieces(cand.global_layer,
                cand.rect.expanded(window_margin(cand.global_layer)), pieces);

  for (const GridShape& gs : pieces) {
    if (gs.net >= 0 && gs.net == cand.net) continue;  // same-net exempt
    const Coord s = required_between(cand, gs);
    if (keeps_distance(cand.rect, gs.rect, s)) continue;
    result.allowed = false;
    result.min_blocker_ripup =
        std::min(result.min_blocker_ripup, blocker_level(gs));
    if (gs.net >= 0 &&
        std::find(result.blocking_nets.begin(), result.blocking_nets.end(),
                  gs.net) == result.blocking_nets.end()) {
      result.blocking_nets.push_back(gs.net);
    }
  }
  return result;
}

PlacementCheck DrcChecker::check_wire(const WireStick& w, int net,
                                      int wiretype) const {
  return check_shape(expand_wire(w, net, wiretype, *tech_));
}

PlacementCheck DrcChecker::check_via(const ViaStick& v, int net,
                                     int wiretype) const {
  PlacementCheck result;
  for (const Shape& s : expand_via(v, net, wiretype, *tech_)) {
    result.merge(check_shape(s));
  }
  return result;
}

std::vector<ForbiddenRun> DrcChecker::forbidden_runs(
    int global_layer, const WireModel& model, bool line_horizontal,
    Coord cross, Interval bound, int net, ShapeKind kind, bool swept) const {
  std::vector<ForbiddenRun> runs;
  if (bound.empty()) return runs;
  std::vector<GridShape> pieces;
  merged_pieces(global_layer,
                query_window(global_layer, model, line_horizontal, cross,
                             bound, swept),
                pieces);
  append_runs(pieces, global_layer, model, line_horizontal, cross, bound, net,
              kind, swept, runs);
  return runs;
}

Rect DrcChecker::query_window(int global_layer, const WireModel& model,
                              bool line_horizontal, Coord cross,
                              Interval bound, bool swept) const {
  const auto [m_along, m_cross] = line_extent(model, line_horizontal, cross);
  const Coord margin = window_margin(global_layer);
  // A point placement's along-axis run-length is bounded by the neighbour's
  // length (append_runs), which the query window may clip.  Where that bound
  // can reach a run-length threshold of the layer's rules, widen the window
  // by the model's length on both sides: a clipped neighbour that can act on
  // `bound` then keeps at least that length, so min(model, neighbour) — and
  // the answer — no longer depends on the window.
  Coord along_ext = 0;
  if (!swept && is_wiring(global_layer) &&
      m_along.length() >=
          tech_->min_prl_threshold(wiring_of_global(global_layer))) {
    along_ext = m_along.length();
  }
  const Interval w_along{bound.lo + m_along.lo - margin - along_ext,
                         bound.hi + m_along.hi + margin + along_ext};
  const Interval w_cross = m_cross.expanded(margin);
  return line_horizontal ? Rect{w_along.lo, w_cross.lo, w_along.hi, w_cross.hi}
                         : Rect{w_cross.lo, w_along.lo, w_cross.hi, w_along.hi};
}

void DrcChecker::append_runs(std::span<const GridShape> pieces,
                             int global_layer, const WireModel& model,
                             bool line_horizontal, Coord cross, Interval bound,
                             int net, ShapeKind kind, bool swept,
                             std::vector<ForbiddenRun>& runs) const {
  const auto [m_along, m_cross] = line_extent(model, line_horizontal, cross);
  const Coord m_width = std::min(m_along.length(), m_cross.length());
  const Coord m_along_len = m_along.length();
  const bool on_wiring = is_wiring(global_layer);

  // Every required spacing is at most window_margin, so a piece outside
  // query_window(...) yields no run inside `bound`: pieces of a wider
  // window change nothing but through the rects they merge into.
  for (const GridShape& gs : pieces) {
    if (gs.net >= 0 && gs.net == net) continue;
    const Interval g_along = line_horizontal ? gs.rect.x_iv() : gs.rect.y_iv();
    const Interval g_cross = line_horizontal ? gs.rect.y_iv() : gs.rect.x_iv();

    Coord s;  // required spacing, conservative run-length assumption (§3.1)
    if (on_wiring) {
      const int w = wiring_of_global(global_layer);
      // Run-length bound: exact on the cross axis; on the along axis use the
      // model length for point placements.  For swept wires assume maximal
      // run-length outright — the sweep can parallel-run the whole
      // neighbour, and using the (query-window-clipped) neighbour length
      // would make the answer depend on the recompute window, breaking the
      // incremental == rebuild invariant of the fast grid.
      const Coord along_prl =
          swept ? 1'000'000'000 : std::min(m_along_len, g_along.length());
      const Coord prl = std::max(run_length(m_cross, g_cross), along_prl);
      const Coord w2 = gs.rule_width;
      s = std::max(tech_->table(w, model.cls).required(m_width, w2, prl),
                   tech_->table(w, gs.cls).required(m_width, w2, prl));
    } else {
      const Shape pseudo{Rect{}, global_layer, kind, model.cls, net};
      s = required_between(pseudo, gs);
    }

    const Coord gy = m_cross.dist(g_cross);
    Coord g_max;
    if (s <= 0) {
      // Only interior overlap is forbidden.
      if (m_cross.lo >= g_cross.hi || g_cross.lo >= m_cross.hi) continue;
      const Interval f{g_along.lo - m_along.hi + 1, g_along.hi - m_along.lo - 1};
      const Interval run = f.intersection(bound);
      if (!run.empty()) runs.push_back({run, gs.net, blocker_level(gs)});
      continue;
    }
    if (gy >= s) continue;  // can never violate regardless of along position
    g_max = (gy == 0) ? s - 1 : isqrt(s * s - gy * gy - 1);
    const Interval f{g_along.lo - g_max - m_along.hi,
                     g_along.hi + g_max - m_along.lo};
    const Interval run = f.intersection(bound);
    if (!run.empty()) runs.push_back({run, gs.net, blocker_level(gs)});
  }
}

}  // namespace bonn
