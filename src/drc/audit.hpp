// Full-chip DRC audit — produces the "Errors" column of Table I.
//
// Counts (a) diff-net minimum distance violations, (b) same-net rule
// violations (minimum area, notch, short-edge, minimum segment length), and
// (c) opens (number of connected components minus number of nets, exactly
// the paper's definition).
#pragma once

#include <span>
#include <vector>

#include "src/db/chip.hpp"

namespace bonn {

struct DrcReport {
  std::int64_t diffnet_violations = 0;
  std::int64_t min_area_violations = 0;
  std::int64_t notch_violations = 0;
  std::int64_t short_edge_violations = 0;
  std::int64_t min_seg_violations = 0;
  std::int64_t opens = 0;

  std::int64_t same_net_total() const {
    return min_area_violations + notch_violations + short_edge_violations +
           min_seg_violations;
  }
  /// The paper's error count: DRC violations + opens.
  std::int64_t errors() const {
    return diffnet_violations + same_net_total() + opens;
  }

  /// Counterwise equality — the fuzz harness compares audits across
  /// transaction rollbacks (rollback must be DRC-neutral).
  friend bool operator==(const DrcReport&, const DrcReport&) = default;
};

/// Audit a routing result against the chip.  `result` may be partial; nets
/// with missing connections count as opens.
DrcReport audit_routing(const Chip& chip, const RoutingResult& result);

/// Diff-net violations on drawn metal (no line-end extensions), per net:
/// entry n counts net n's routed shapes that break a distance rule against
/// the fixed shapes or another net's wiring.  The audit's
/// diffnet_violations is their sum; DRC cleanup reroutes the nets with a
/// nonzero count.
std::vector<std::int64_t> diffnet_violations_per_net(
    const Chip& chip, const RoutingResult& result);

/// Opens only (cheap connectivity check).
std::int64_t count_opens(const Chip& chip, const RoutingResult& result);

}  // namespace bonn
