// The technology container: layer stack, rule deck, wire types.
//
// A Tech instance stands in for the "complete rule sets" of the paper's IBM
// 22 nm / 32 nm decks (see DESIGN.md substitution table): width/run-length
// spacing tables, line-end rules, min-area / min-segment-length / notch /
// short-edge same-net rules, via cut and inter-layer via rules, and several
// wire types (standard, wide, power).
#pragma once

#include <string>
#include <vector>

#include "src/tech/layer.hpp"
#include "src/tech/rules.hpp"
#include "src/tech/wire_model.hpp"

namespace bonn {

class Tech {
 public:
  std::vector<WiringLayer> wiring;
  std::vector<ViaLayer> via_layers;
  /// Per wiring layer, per shape class: diff-net spacing tables.
  /// spacing[layer][cls]
  std::vector<std::vector<SpacingTable>> spacing;
  std::vector<WireType> wiretypes;

  int num_wiring() const { return static_cast<int>(wiring.size()); }
  int num_vias() const { return static_cast<int>(via_layers.size()); }

  Dir pref(int wiring_layer) const { return wiring[wiring_layer].pref; }

  const SpacingTable& table(int wiring_layer, ShapeClass cls) const {
    const auto& per_layer = spacing[wiring_layer];
    const auto idx = static_cast<std::size_t>(cls);
    return idx < per_layer.size() ? per_layer[idx] : per_layer[0];
  }

  /// Largest spacing any rule on the layer can require — bounds the window
  /// the distance rule checker must inspect around a candidate shape.
  Coord max_spacing(int wiring_layer) const;
  /// Smallest positive run-length threshold of any rule on the layer (see
  /// SpacingTable::min_prl_threshold).
  Coord min_prl_threshold(int wiring_layer) const;

  const WireType& wt(int id) const { return wiretypes[static_cast<std::size_t>(id)]; }

  const WireModel& wire_model(int wt_id, int layer, bool preferred) const {
    const WireType& t = wt(wt_id);
    return preferred ? t.pref[static_cast<std::size_t>(layer)]
                     : t.nonpref[static_cast<std::size_t>(layer)];
  }

  /// Builds a representative test technology:
  ///  - `layers` wiring layers alternating H/V starting with `first_dir`
  ///  - pitch 100 dbu, standard width 50, spacing 50
  ///  - wide-metal spacing rows (width >= 120 → 80; + run-length >= 400 → 120)
  ///  - line-end threshold 70 / extra 20
  ///  - min-area 7500, τ = 100, notch 60, short-edge 40
  ///  - wire types: 0 standard, 1 wide (2 tracks), 2 power (4 tracks)
  static Tech make_test(int layers, Dir first_dir = Dir::kHorizontal);
};

}  // namespace bonn
