#include "src/tech/tech.hpp"

#include <algorithm>
#include <limits>

#include "src/util/assert.hpp"

namespace bonn {

Coord Tech::max_spacing(int wiring_layer) const {
  Coord m = wiring[static_cast<std::size_t>(wiring_layer)].min_spacing;
  for (const SpacingTable& t : spacing[static_cast<std::size_t>(wiring_layer)]) {
    m = std::max(m, t.max_spacing());
  }
  return m;
}

Coord Tech::min_prl_threshold(int wiring_layer) const {
  Coord m = std::numeric_limits<Coord>::max();
  for (const SpacingTable& t : spacing[static_cast<std::size_t>(wiring_layer)]) {
    m = std::min(m, t.min_prl_threshold());
  }
  return m;
}

namespace {

WireModel make_wire_model(Dir pref, Coord width, Coord end_ext,
                          ShapeClass cls) {
  const Coord hw = width / 2;
  Rect expand{-hw, -hw, hw, hw};
  if (pref == Dir::kHorizontal) {
    expand.xlo -= end_ext;
    expand.xhi += end_ext;
  } else {
    expand.ylo -= end_ext;
    expand.yhi += end_ext;
  }
  return WireModel{expand, cls};
}

ViaModel make_via_model(const Tech& tech, int via_layer, Coord pad_width,
                        ShapeClass cls) {
  const ViaLayer& vl = tech.via_layers[static_cast<std::size_t>(via_layer)];
  const Coord hc = vl.cut_size / 2;
  ViaModel m;
  // Pads extend in the preferred direction of their wiring layer by half a
  // pad width (enclosure) — no extension to neighbouring tracks.
  m.bottom = make_wire_model(tech.wiring[static_cast<std::size_t>(via_layer)].pref,
                             pad_width, pad_width / 4, cls);
  m.top = make_wire_model(tech.wiring[static_cast<std::size_t>(via_layer) + 1].pref,
                          pad_width, pad_width / 4, cls);
  m.cut = WireModel{Rect{-hc, -hc, hc, hc}, cls};
  if (vl.interlayer_spacing > 0) {
    m.projection = m.cut;  // cut projected onto the next higher via layer
    m.has_projection = true;
  }
  return m;
}

void add_wiretype(Tech& tech, int id, const std::string& name, Coord width,
                  Coord end_ext, ShapeClass cls, double track_usage) {
  WireType t;
  t.id = id;
  t.name = name;
  t.track_usage = track_usage;
  for (int w = 0; w < tech.num_wiring(); ++w) {
    const Dir p = tech.pref(w);
    t.pref.push_back(make_wire_model(p, width, end_ext, cls));
    // Jogs get plain end caps, no line-end extension (§3.1: optimistic).
    t.nonpref.push_back(make_wire_model(orthogonal(p), width, 0, cls));
  }
  for (int v = 0; v < tech.num_vias(); ++v) {
    t.vias.push_back(make_via_model(tech, v, width + 20, cls));
  }
  tech.wiretypes.push_back(std::move(t));
}

}  // namespace

Tech Tech::make_test(int layers, Dir first_dir) {
  BONN_CHECK(layers >= 2);
  Tech tech;
  tech.wiring.reserve(static_cast<std::size_t>(layers));
  for (int i = 0; i < layers; ++i) {
    WiringLayer l;
    l.id = i;
    l.name = "M";
    l.name += std::to_string(i + 1);
    l.pref = (i % 2 == 0) ? first_dir : orthogonal(first_dir);
    l.pitch = 100;
    l.min_width = 50;
    l.min_spacing = 50;
    l.lineend_threshold = 70;
    l.lineend_extra = 20;
    l.min_area = 7500;
    l.min_seg_len = 100;
    // Notch must not exceed the diff-net spacing minus the via-pad overhang
    // (pads legally sit 40 from a parallel same-net wire); short-edge sits
    // below the smallest model step (10 dbu pad/wire half-width delta).
    l.notch_spacing = 40;
    l.short_edge_len = 10;
    tech.wiring.push_back(std::move(l));
  }
  for (int i = 0; i + 1 < layers; ++i) {
    ViaLayer v;
    v.id = i;
    v.name = "V";
    v.name += std::to_string(i + 1);
    v.cut_size = 50;
    v.cut_spacing = 60;
    v.interlayer_spacing = (i + 2 < layers) ? 40 : 0;
    tech.via_layers.push_back(std::move(v));
  }

  tech.spacing.resize(static_cast<std::size_t>(layers));
  for (int i = 0; i < layers; ++i) {
    // Class 0: standard wires — width/run-length dependent table.
    SpacingTable std_table({
        {0, -1'000'000'000, 50},  // base spacing (applies for any run-length)
        {120, 0, 80},             // wide metal with positive run-length
        {120, 400, 120},          // wide metal with long parallel run
    });
    // Class 1: power class — uniformly larger spacing.
    SpacingTable pwr_table({
        {0, -1'000'000'000, 100},
        {120, 400, 160},
    });
    tech.spacing[static_cast<std::size_t>(i)] = {std_table, pwr_table};
  }

  add_wiretype(tech, 0, "standard", 50, 20, 0, 1.0);
  add_wiretype(tech, 1, "wide", 150, 20, 0, 2.0);
  add_wiretype(tech, 2, "power", 300, 20, 1, 4.0);
  return tech;
}

}  // namespace bonn
