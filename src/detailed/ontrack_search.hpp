// On-track path search: the interval-based Dijkstra of §4.1 (Algorithm 4).
//
// Vertices of the track graph are partitioned per (layer, track) into
// maximal *usable runs* (from the fast grid, for the requested wiretype and
// ripup permission).  Labels are cones (anchor station, distance δ): a label
// represents d(u) = δ + |c_u − c_anchor| for every station u of its run, so
// a straight wire of any length costs one label instead of one label per
// vertex — the ≥6x speed-up of the paper.  Priority keys add the future
// cost π (A*-style, π consistent); when a label pops, exactly the stations
// of the current equality front J_I(δ) are expanded (vias, jogs, targets),
// and the label is re-pushed with the next key if part of its run remains —
// faithfully mirroring Algorithm 4's J_I(δ) processing.
//
// Fast-grid answers are counted as hits; edges whose usability cannot be
// deduced from vertex data (gap bits) fall back to the distance rule
// checking module and are counted as misses (the 97.89 % statistic).
#pragma once

#include <new>
#include <optional>
#include <span>
#include <unordered_map>

#include "src/detailed/future_cost.hpp"
#include "src/detailed/routing_space.hpp"
#include "src/util/assert.hpp"
#include "src/util/budget.hpp"
#include "src/util/faultpoint.hpp"

namespace bonn {

/// Injective 64-bit key of a track vertex, for hash-map lookups.  Each field
/// is biased by 2^20 and packed into 21 bits, so the full int range a vertex
/// can legitimately carry — including the -1 "invalid" sentinels — maps to a
/// distinct key.  (A previous packing multiplied by 2^24 without masking the
/// track to 24 bits, so (layer, track, station) = (0, 1, 0) and
/// (0, 0, 2^24) collided, and negative sentinels aliased neighbours.)
inline std::uint64_t vertex_key(const TrackVertex& v) {
  constexpr std::int64_t kBias = 1LL << 20;
  BONN_ASSERT(v.layer >= -kBias && v.layer < kBias);
  BONN_ASSERT(v.track >= -kBias && v.track < kBias);
  BONN_ASSERT(v.station >= -kBias && v.station < kBias);
  const auto part = [](int x) {
    return static_cast<std::uint64_t>(x + kBias) & ((1ULL << 21) - 1);
  };
  return (part(v.layer) << 42) | (part(v.track) << 21) | part(v.station);
}

struct SearchParams {
  int net = -1;  ///< net being routed (same-net exemption on verify calls)
  int wiretype = 0;
  /// Wire spreading (§4.2): extra cost imposed on intervals inside the given
  /// planar zones — derived from congestion observed by global routing, so
  /// wires spread away from regions that must be kept free.
  const std::vector<std::pair<Rect, Coord>>* spread_zones = nullptr;
  /// Vertices inside these per-layer rects are unusable — set when a found
  /// path failed final verification, so the retry avoids the bad spots.
  const std::vector<RectL>* banned = nullptr;
  /// Layer restriction (§4.4: the routing area follows the global route's
  /// layers plus neighbours).  nullptr = all layers allowed.
  const std::vector<char>* allowed_layers = nullptr;
  RipupLevel allowed_ripup = 0;  ///< 0 = no ripup; else rip levels >= this
  Coord jog_penalty = 2;         ///< β: cost multiplier for jogs
  Coord via_cost = 400;          ///< γ: cost per via
  Coord rip_penalty = 3000;      ///< entering an interval that needs ripup
  std::int64_t max_pops = 2'000'000;  ///< search abort bound
  /// Flow budget, polled every ~1024 pops (and by the scheduler between
  /// nets): a tripped budget aborts the search like an exhausted pop
  /// bound.  nullptr = unlimited.
  const Budget* budget = nullptr;
  /// Hung-net watchdog (chaos harness): a hard per-attempt wall-clock
  /// ceiling, polled at the same ~1024-pop cadence.  A watchdog stop also
  /// flags the attempt as hung so the scheduler can quarantine a net that
  /// trips it repeatedly.  nullptr = no watchdog.
  const Deadline* watchdog = nullptr;
  /// Out-parameter: set to true when the search aborted on a resource limit
  /// (pop bound, budget or watchdog) rather than exhausting the graph — the
  /// retry ladder only descends on limit-induced failures.
  bool* limit_hit = nullptr;
  /// Out-parameter: set to true when the watchdog ceiling expired.
  bool* watchdog_hit = nullptr;
};

/// The limit poll both search cores run after counting a pop: true when
/// the search must stop — past the pop bound, or, every 1024 pops, on a
/// tripped budget or an expired watchdog — with the stop flagged in the
/// params' out-parameters.  The same 1024-pop cadence is where the `alloc`
/// chaos fault throws std::bad_alloc.
inline bool search_limit_reached(std::int64_t pops, const SearchParams& p) {
  if (pops > p.max_pops) {
    if (p.limit_hit != nullptr) *p.limit_hit = true;
    return true;
  }
  if ((pops & 1023) != 0) return false;
  if (p.budget != nullptr && p.budget->stopped()) {
    if (p.limit_hit != nullptr) *p.limit_hit = true;
    return true;
  }
  // Same cadence, separate flag: the scheduler distinguishes a hung
  // attempt from an ordinary limit stop.
  if (p.watchdog != nullptr && p.watchdog->expired()) {
    if (p.watchdog_hit != nullptr) *p.watchdog_hit = true;
    if (p.limit_hit != nullptr) *p.limit_hit = true;
    return true;
  }
  if (BONN_FAULT_NET("alloc", p.net)) throw std::bad_alloc();
  return false;
}

struct SearchSource {
  TrackVertex v;
  Coord offset = 0;  ///< initial cost (e.g. pin access path cost)
  int tag = -1;      ///< caller's id (e.g. access path index)
};

struct SearchStats {
  std::int64_t labels_created = 0;
  std::int64_t pops = 0;
  std::int64_t heap_pushes = 0;     ///< priority-queue pushes (incl. re-keys)
  std::int64_t station_expansions = 0;
  std::int64_t fastgrid_hits = 0;   ///< questions answered from the fast grid
  std::int64_t fastgrid_misses = 0;  ///< fallbacks to the rule checker
};

struct FoundPath {
  /// Corner vertices from source to target; consecutive vertices share a
  /// track (wire), a station on the same layer (jog) or a planar point on
  /// adjacent layers (via).
  std::vector<TrackVertex> vertices;
  Coord cost = 0;
  int source_tag = -1;
  int target_index = -1;
};

class OnTrackSearch {
 public:
  explicit OnTrackSearch(const RoutingSpace& rs) : rs_(&rs) {}

  /// Find a shortest path from any source to any target inside `area`
  /// (a union of planar rects — the §4.4 corridor).  The search works on
  /// the net-blind fast grid; callers must have temporarily removed the
  /// net's own component shapes (§4.4).
  std::optional<FoundPath> run(std::span<const SearchSource> sources,
                               std::span<const TrackVertex> targets,
                               const std::vector<Rect>& area,
                               const FutureCost& pi, const SearchParams& params,
                               SearchStats* stats = nullptr) const;

 private:
  const RoutingSpace* rs_;
};

}  // namespace bonn
