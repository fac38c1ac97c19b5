// IntervalMap<V>: a piecewise-constant map Coord -> V over the whole line,
// stored as a balanced search tree of breakpoints with automatic coalescing
// of equal neighbouring values.
//
// This is the storage pattern §3.3 and §3.6 describe: "sequences of identical
// numbers in preferred direction are merged to intervals ... stored in an
// AVL-tree in each row or column of cells".  We use std::map (red-black tree)
// in place of an AVL tree — identical O(log n) bounds.
#pragma once

#include <cstddef>
#include <map>
#include <span>

#include "src/geom/point.hpp"
#include "src/util/assert.hpp"

namespace bonn {

template <typename V>
class IntervalMap {
 public:
  explicit IntervalMap(V default_value = V{})
      : default_(std::move(default_value)) {}

  /// Value at position pos.
  const V& at(Coord pos) const {
    auto it = breaks_.upper_bound(pos);
    return it == breaks_.begin() ? default_ : std::prev(it)->second;
  }

  /// Assign v on the half-open range [lo, hi).
  void assign(Coord lo, Coord hi, const V& v) {
    if (lo >= hi) return;
    const V end_val = at(hi);
    auto first = breaks_.lower_bound(lo);
    const V before = (first == breaks_.begin()) ? default_
                                                : std::prev(first)->second;
    breaks_.erase(first, breaks_.lower_bound(hi));
    auto it_hi = breaks_.find(hi);
    if (it_hi == breaks_.end()) {
      if (!(end_val == v)) breaks_.emplace(hi, end_val);
    } else if (it_hi->second == v) {
      breaks_.erase(it_hi);  // coalesce with the segment starting at hi
    }
    if (!(before == v)) breaks_.emplace(lo, v);
  }

  /// Bulk write: assign vals[i] on [lo + i, lo + i + 1) for every i, as one
  /// canonical splice of the window [lo, lo + vals.size()) — one tree
  /// search, then breakpoints only where the value changes, each inserted at
  /// a hint.  The result equals the per-position assigns.
  void assign_dense(Coord lo, std::span<const V> vals) {
    if (vals.empty()) return;
    const Coord hi = lo + static_cast<Coord>(vals.size());
    const V end_val = at(hi);
    auto first = breaks_.lower_bound(lo);
    const V* prev = (first == breaks_.begin()) ? &default_
                                               : &std::prev(first)->second;
    // Breakpoints on [lo, hi] go; the one at hi is re-added below if the
    // value still changes there.  `next` is the first breakpoint past hi.
    const auto next = breaks_.erase(first, breaks_.upper_bound(hi));
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (vals[i] == *prev) continue;
      breaks_.emplace_hint(next, lo + static_cast<Coord>(i), vals[i]);
      prev = &vals[i];
    }
    if (!(end_val == *prev)) breaks_.emplace_hint(next, hi, end_val);
  }

  /// Iterate constant pieces intersecting [lo, hi): fn(piece_lo, piece_hi, v),
  /// clipped to the query window.
  template <typename Fn>
  void for_each(Coord lo, Coord hi, Fn fn) const {
    if (lo >= hi) return;
    auto it = breaks_.upper_bound(lo);
    Coord cur = lo;
    const V* cur_val = (it == breaks_.begin()) ? &default_
                                               : &std::prev(it)->second;
    while (cur < hi) {
      const Coord piece_hi = (it == breaks_.end()) ? hi
                                                   : std::min(it->first, hi);
      if (piece_hi > cur) fn(cur, piece_hi, *cur_val);
      if (it == breaks_.end() || it->first >= hi) break;
      cur = it->first;
      cur_val = &it->second;
      ++it;
    }
  }

  /// First position >= from where the value differs from at(from); or `until`
  /// if the value is constant on [from, until).
  Coord next_change(Coord from, Coord until) const {
    auto it = breaks_.upper_bound(from);
    const V& v0 = (it == breaks_.begin()) ? default_ : std::prev(it)->second;
    while (it != breaks_.end() && it->first < until) {
      if (!(it->second == v0)) return it->first;
      ++it;
    }
    return until;
  }

  /// Number of constant pieces intersecting [lo, hi).
  std::size_t pieces_in(Coord lo, Coord hi) const {
    std::size_t n = 0;
    for_each(lo, hi, [&](Coord, Coord, const V&) { ++n; });
    return n;
  }

  /// Total number of breakpoints stored (memory metric for Fig. 3/4 benches).
  std::size_t breakpoint_count() const { return breaks_.size(); }

  /// Structural invariant: the stored representation is canonical — no
  /// breakpoint carries the same value as the piece before it (assign()
  /// coalesces such neighbours away).  A non-canonical map still answers
  /// queries correctly but breaks bit-identity guarantees (snapshot
  /// comparisons, breakpoint-count metrics), so the invariant auditor
  /// (RoutingSpace::check_invariants) verifies it for every row and track.
  bool check_coalesced() const {
    const V* prev = &default_;
    for (const auto& [pos, v] : breaks_) {
      if (v == *prev) return false;
      prev = &v;
    }
    return true;
  }

  const V& default_value() const { return default_; }

  void clear() { breaks_.clear(); }

 private:
  V default_;
  std::map<Coord, V> breaks_;  // value holds from key until the next key
};

}  // namespace bonn
