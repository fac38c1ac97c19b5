// Diff-net minimum distance rules (§3.1).
//
// The required distance between two shapes is a nondecreasing function of
// their widths and common run-length.  We model it the way industrial decks
// do: a spacing table with (width, parallel-run-length) thresholds, looked up
// with the wider shape's rule width.  Shape classes (§3.2) select between
// spacing tables (e.g. wide-metal class, power class).
#pragma once

#include <vector>

#include "src/geom/point.hpp"
#include "src/geom/rect.hpp"

namespace bonn {

/// Shape class: index into the rule deck's per-class spacing behaviour.
/// Class 0 is the standard wire class of the layer.
using ShapeClass = int;

struct SpacingRow {
  Coord width_ge = 0;   ///< row applies if max shape width >= width_ge
  Coord prl_ge = 0;     ///< ... and common run-length >= prl_ge
  Coord spacing = 0;    ///< required minimum distance
};

/// Width/run-length spacing table; rows may overlap, the maximum applicable
/// spacing governs (monotone by construction in real decks).
class SpacingTable {
 public:
  SpacingTable() = default;
  explicit SpacingTable(std::vector<SpacingRow> rows) : rows_(std::move(rows)) {}

  void add_row(SpacingRow row) { rows_.push_back(row); }

  /// Required spacing between shapes of rule-widths w1, w2 with common
  /// run-length prl (prl < 0 means disjoint projections on both axes).
  Coord required(Coord w1, Coord w2, Coord prl) const;

  /// Largest spacing any pair of shapes could require (used to bound query
  /// windows in the shape grid).
  Coord max_spacing() const;

  /// Smallest positive run-length threshold of any row, or the largest
  /// Coord when none has one: non-negative run-lengths below it all select
  /// the same spacing.
  Coord min_prl_threshold() const;

  bool empty() const { return rows_.empty(); }

 private:
  std::vector<SpacingRow> rows_;
};

/// Checks whether two rectangles on the same wiring layer violate the given
/// spacing table.  `same_net` pairs are exempt from diff-net rules.
/// Uses squared-ℓ2 corner distance when projections are disjoint on both
/// axes, axis gap otherwise — the standard Euclidean spacing semantics.
bool spacing_violation(const Rect& a, const Rect& b, const SpacingTable& table);

/// Required spacing between two concrete rectangles per the table (accounts
/// for their widths and actual run-length).
Coord required_spacing(const Rect& a, const Rect& b, const SpacingTable& table);

/// True if the two rects keep at least `spacing` ℓ2 distance (touching or
/// overlapping counts as violation when spacing > 0).
bool keeps_distance(const Rect& a, const Rect& b, Coord spacing);

}  // namespace bonn
