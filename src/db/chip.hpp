// The design database: pins, nets, blockages and the chip container.
//
// A Chip is the router's input: a technology, a die area, fixed shapes
// (blockages, power pre-routes) and a netlist whose pins carry real shapes
// on wiring layers — partly off-track, as §1.1 stresses ("pins are often not
// perfectly aligned and have many blockages around them").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/geom/rect.hpp"
#include "src/tech/shapes.hpp"
#include "src/tech/stick.hpp"
#include "src/tech/tech.hpp"
#include "src/util/error.hpp"

namespace bonn {

struct Pin {
  int id = -1;
  int net = -1;
  /// Metal shapes of the pin; layer is a wiring layer index.
  std::vector<RectL> shapes;

  /// Representative point (centre of the first shape) — used for Steiner
  /// length estimates and tile mapping.
  Point anchor() const {
    return shapes.empty() ? Point{} : shapes.front().r.center();
  }
  int anchor_layer() const { return shapes.empty() ? 0 : shapes.front().layer; }
};

struct Net {
  int id = -1;
  std::string name;
  std::vector<int> pins;  ///< indices into Chip::pins
  int wiretype = 0;
  double weight = 1.0;  ///< criticality weight (timing-driven nets)

  int degree() const { return static_cast<int>(pins.size()); }
};

class Chip {
 public:
  Tech tech;
  Rect die;
  std::vector<Pin> pins;
  std::vector<Net> nets;
  /// Fixed shapes: macro blockages, power stripes, pre-routed clock.  These
  /// participate in diff-net rules but are never ripped up.
  std::vector<Shape> blockages;

  int num_nets() const { return static_cast<int>(nets.size()); }

  /// Anchor points of all pins of a net (Steiner terminals).
  std::vector<Point> net_terminals(int net) const;

  /// Total pin count.
  int num_pins() const { return static_cast<int>(pins.size()); }

  /// All fixed shapes + pin shapes as Shape records (what gets preloaded
  /// into the routing-space data structures).
  std::vector<Shape> fixed_shapes() const;
  /// The pin shapes of one net, as fixed_shapes() records them.
  std::vector<Shape> pin_shapes(int net) const;
};

/// A complete routing result: paths per net.
struct RoutingResult {
  std::vector<std::vector<RoutedPath>> net_paths;

  explicit RoutingResult(int num_nets = 0)
      : net_paths(static_cast<std::size_t>(num_nets)) {}

  Coord total_wirelength() const;
  std::int64_t via_count() const;
  /// Wirelength of one net.
  Coord net_wirelength(int net) const;
};

/// Content digest of a chip (FNV-1a over die, tech, blockages, nets, pins).
/// Checkpoints carry it so a resume against a different chip is rejected
/// up front instead of silently corrupting the routing space.
std::uint64_t chip_digest(const Chip& chip);

/// Structural validation of a chip: cross-references in range (net↔pin ids),
/// shapes on real layers and inside the die, finite weights.  Returns an
/// empty vector when the chip is well-formed; errors carry actionable
/// messages and the offending net id where applicable.
std::vector<FlowError> validate_chip(const Chip& chip);

/// Validate that `result` belongs to `chip`: net count matches, every path's
/// net id agrees with its slot, and all geometry lies on real layers inside
/// the die (with slack for off-die patches).  A mismatched prior fed to
/// reroute_nets / RoutingSpace::load_result would silently corrupt the
/// routing space; callers reject it with these errors instead.
std::vector<FlowError> validate_result(const Chip& chip,
                                       const RoutingResult& result);

}  // namespace bonn
