#include "src/tech/rules.hpp"

#include <algorithm>
#include <limits>

namespace bonn {

Coord SpacingTable::required(Coord w1, Coord w2, Coord prl) const {
  const Coord w = std::max(w1, w2);
  Coord spacing = 0;
  for (const SpacingRow& row : rows_) {
    if (w >= row.width_ge && prl >= row.prl_ge) {
      spacing = std::max(spacing, row.spacing);
    }
  }
  return spacing;
}

Coord SpacingTable::max_spacing() const {
  Coord m = 0;
  for (const SpacingRow& row : rows_) m = std::max(m, row.spacing);
  return m;
}

Coord SpacingTable::min_prl_threshold() const {
  Coord m = std::numeric_limits<Coord>::max();
  for (const SpacingRow& row : rows_)
    if (row.prl_ge > 0) m = std::min(m, row.prl_ge);
  return m;
}

Coord required_spacing(const Rect& a, const Rect& b,
                       const SpacingTable& table) {
  // Common run-length (§3.1): intersection length of the projections; the
  // larger of the two axes governs (rules quote "positive run-length").
  const Coord prl = std::max(run_length(a.x_iv(), b.x_iv()),
                             run_length(a.y_iv(), b.y_iv()));
  return table.required(a.rule_width(), b.rule_width(), prl);
}

bool keeps_distance(const Rect& a, const Rect& b, Coord spacing) {
  if (spacing <= 0) return !a.overlaps_interior(b);
  const Coord gx = a.x_gap(b);
  const Coord gy = a.y_gap(b);
  if (gx > 0 && gy > 0) {
    // Diagonal situation: Euclidean corner-to-corner distance governs.
    return gx * gx + gy * gy >= spacing * spacing;
  }
  // Projections overlap on one axis: the axis gap governs.
  return std::max(gx, gy) >= spacing;
}

bool spacing_violation(const Rect& a, const Rect& b,
                       const SpacingTable& table) {
  return !keeps_distance(a, b, required_spacing(a, b, table));
}

}  // namespace bonn
