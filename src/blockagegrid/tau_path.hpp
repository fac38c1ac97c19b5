// Shortest τ-feasible path search (§3.8).
//
// Runs Dijkstra on the path-preserving digraph over the blockage grid: up to
// four vertices per grid point, one per incoming direction.  Straight arcs
// connect neighbouring grid points without a bend; turn arcs jump to the
// nearest grid points at distance >= τ perpendicular to the incoming
// direction, so every bend is followed by a long segment and every segment
// of the resulting path has length >= τ (Fig. 5's same-net-clean paths).
// Vias connect adjacent layers; a via ends the current segment, so the
// continuation starts "fresh" and must again run >= τ before bending.
// Every arc test is an O(1) lookup in per-layer BlockageTables built once
// per search.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/blockagegrid/blockage_grid.hpp"
#include "src/geom/point.hpp"

namespace bonn {

/// One layer of the τ-path search space.  Obstacles must already be blown up
/// by wire half-width + diff-net clearance so the zero-width path centreline
/// is legal anywhere outside them.
struct TauLayer {
  std::vector<Rect> obstacles;
  Coord tau = 0;
  Dir pref = Dir::kHorizontal;   ///< cost weighting: non-preferred costs more
};

struct TauPathResult {
  std::vector<PointL> points;  ///< polyline incl. source and target; layer
                               ///< changes between equal planar points = via
  Coord cost = 0;              ///< weighted cost (incl. via penalties)
  Coord length = 0;            ///< planar wirelength
  int target_index = -1;
};

class TauPathSearch {
 public:
  /// `area`: planar search window; `layers`: bottom..top (indices are local
  /// layer ids used in PointL::layer); `via_cost`: penalty per via;
  /// `nonpref_penalty`: multiplier (x100) for running against a layer's
  /// preferred direction, 100 = neutral.  Costs must be non-negative and
  /// every arc must cost less than 2^31: `via_cost` and the area's longer
  /// side times max(100, `nonpref_penalty_pct`) (checked).
  TauPathSearch(const Rect& area, std::vector<TauLayer> layers,
                Coord via_cost, int nonpref_penalty_pct = 250);

  /// The search (Dijkstra from `source`): hands each target's shortest path
  /// to `on_path` in the order the targets are settled, cheapest first.  It
  /// stops when `on_path` returns false, after `max_results` paths, or once
  /// every target it can find is found.  Targets sharing a grid point are one
  /// target, the first of them.  A target outside the area or on a layer the
  /// search does not have is never found, and a source there finds nothing.
  /// Returns the number of states the search settled.
  std::size_t each_path(
      const PointL& source, std::span<const PointL> targets,
      std::size_t max_results,
      const std::function<bool(TauPathResult&&)>& on_path) const;

  /// Shortest τ-feasible path from `source` to the closest target.
  std::optional<TauPathResult> shortest(const PointL& source,
                                        std::span<const PointL> targets) const;

  /// All targets reachable, each with its own shortest path, cheapest first,
  /// at most `max_results`.
  std::vector<TauPathResult> all_paths(const PointL& source,
                                       std::span<const PointL> targets,
                                       std::size_t max_results) const;

 private:
  Rect area_;
  std::vector<TauLayer> layers_;
  Coord via_cost_;
  int nonpref_pct_;
};

}  // namespace bonn
