#include "src/drc/audit.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "src/drc/checker.hpp"
#include "src/geom/rect_union.hpp"
#include "src/shapegrid/shape_grid.hpp"
#include "src/util/assert.hpp"

namespace bonn {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }
  std::size_t components(std::size_t n) {
    std::vector<char> seen(parent_.size(), 0);
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = find(i);
      if (!seen[r]) {
        seen[r] = 1;
        ++c;
      }
    }
    return c;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Connectivity items of one net: metal rects on wiring layers.
struct NetItem {
  Rect rect;
  int layer;
};

/// Number of connected components of one net's metal (pins + routing).
std::size_t net_components(const Chip& chip, const Net& net,
                           std::span<const RoutedPath> paths) {
  std::vector<NetItem> items;
  std::vector<std::pair<std::size_t, std::size_t>> forced;  // via pad pairs

  for (int pid : net.pins) {
    const Pin& pin = chip.pins[static_cast<std::size_t>(pid)];
    const std::size_t first = items.size();
    for (const RectL& rl : pin.shapes) items.push_back({rl.r, rl.layer});
    for (std::size_t i = first + 1; i < items.size(); ++i) {
      forced.emplace_back(first, i);  // all shapes of a pin are connected
    }
  }
  for (const RoutedPath& p : paths) {
    for (const WireStick& w : p.wires) {
      // Connectivity on drawn metal (no line-end extension).
      const WireModel& m = chip.tech.wire_model(p.wiretype, w.layer, false);
      items.push_back({m.shape(w.a, w.b), w.layer});
    }
    for (const ViaStick& v : p.vias) {
      const auto shapes = expand_via(v, p.net, p.wiretype, chip.tech);
      // shapes[0] = bottom pad, shapes[1] = top pad (see expand_via).
      items.push_back({shapes[0].rect, v.below});
      items.push_back({shapes[1].rect, v.below + 1});
      forced.emplace_back(items.size() - 2, items.size() - 1);
    }
  }
  if (items.empty()) return 0;

  UnionFind uf(items.size());
  for (const auto& [a, b] : forced) uf.unite(a, b);

  // Per-layer sweep uniting intersecting rects.
  std::map<int, std::vector<std::size_t>> by_layer;
  for (std::size_t i = 0; i < items.size(); ++i) {
    by_layer[items[i].layer].push_back(i);
  }
  for (auto& [layer, idxs] : by_layer) {
    std::sort(idxs.begin(), idxs.end(), [&](std::size_t a, std::size_t b) {
      return items[a].rect.xlo < items[b].rect.xlo;
    });
    std::vector<std::size_t> active;
    for (std::size_t idx : idxs) {
      const Rect& r = items[idx].rect;
      active.erase(std::remove_if(active.begin(), active.end(),
                                  [&](std::size_t a) {
                                    return items[a].rect.xhi < r.xlo;
                                  }),
                   active.end());
      for (std::size_t a : active) {
        if (items[a].rect.intersects(r)) uf.unite(a, idx);
      }
      active.push_back(idx);
    }
  }
  return uf.components(items.size());
}

}  // namespace

std::int64_t count_opens(const Chip& chip, const RoutingResult& result) {
  std::int64_t opens = 0;
  for (const Net& net : chip.nets) {
    const auto& paths = result.net_paths[static_cast<std::size_t>(net.id)];
    const std::size_t comps = net_components(chip, net, paths);
    if (comps > 1) opens += static_cast<std::int64_t>(comps) - 1;
  }
  return opens;
}

std::vector<std::int64_t> diffnet_violations_per_net(
    const Chip& chip, const RoutingResult& result) {
  ShapeGrid grid(chip.tech, chip.die);
  for (const Shape& s : chip.fixed_shapes()) grid.insert(s, kFixed);
  std::vector<Shape> routed;
  std::vector<std::size_t> owner;  // index into result.net_paths per shape
  for (std::size_t n = 0; n < result.net_paths.size(); ++n) {
    for (const RoutedPath& p : result.net_paths[n]) {
      auto shapes = expand_path_drawn(p, chip.tech);
      routed.insert(routed.end(), shapes.begin(), shapes.end());
      owner.resize(routed.size(), n);
    }
  }
  for (const Shape& s : routed) grid.insert(s, kStandard);
  DrcChecker checker(chip.tech, grid);
  std::vector<std::int64_t> per_net(result.net_paths.size(), 0);
  for (std::size_t i = 0; i < routed.size(); ++i) {
    if (!checker.check_shape(routed[i]).allowed) ++per_net[owner[i]];
  }
  return per_net;
}

DrcReport audit_routing(const Chip& chip, const RoutingResult& result) {
  DrcReport report;
  report.opens = count_opens(chip, result);

  // ---- Diff-net violations: marker count = routed shapes in conflict.
  for (std::int64_t v : diffnet_violations_per_net(chip, result))
    report.diffnet_violations += v;

  // ---- Same-net rules, per net and wiring layer.
  for (const Net& net : chip.nets) {
    const auto& paths = result.net_paths[static_cast<std::size_t>(net.id)];
    std::map<int, std::vector<Rect>> metal;  // wiring layer -> rects
    std::map<int, std::vector<Rect>> lines;  // wire/jog metal only (notch)
    for (int pid : net.pins) {
      for (const RectL& rl : chip.pins[static_cast<std::size_t>(pid)].shapes) {
        metal[rl.layer].push_back(rl.r);
      }
    }
    for (const RoutedPath& p : paths) {
      for (const Shape& s : expand_path_drawn(p, chip.tech)) {
        if (is_wiring(s.global_layer)) {
          metal[wiring_of_global(s.global_layer)].push_back(s.rect);
          // The notch rule governs line metal; via pads are governed by
          // enclosure rules instead (deck choice, see DESIGN.md §3b).
          if (s.kind == ShapeKind::kWire || s.kind == ShapeKind::kJog) {
            lines[wiring_of_global(s.global_layer)].push_back(s.rect);
          }
        }
      }
      // Minimum segment length (τ) on the stick level.
      for (const WireStick& w : p.wires) {
        const Coord tau =
            chip.tech.wiring[static_cast<std::size_t>(w.layer)].min_seg_len;
        if (w.length() > 0 && w.length() < tau) ++report.min_seg_violations;
      }
    }
    for (auto& [layer, rects] : metal) {
      const WiringLayer& wl = chip.tech.wiring[static_cast<std::size_t>(layer)];
      // Minimum area per connected metal polygon.
      for (const auto& comp : connected_components(rects)) {
        std::vector<Rect> crs;
        crs.reserve(comp.size());
        for (int i : comp) crs.push_back(rects[static_cast<std::size_t>(i)]);
        if (union_area(crs) < wl.min_area) ++report.min_area_violations;
      }
      // Notch rule: same-net *line* shapes closer than notch_spacing but
      // disjoint, with positive run-length (a slot the fab cannot print).
      const auto& line_rects = lines[layer];
      for (std::size_t i = 0; i < line_rects.size(); ++i) {
        for (std::size_t j = i + 1; j < line_rects.size(); ++j) {
          const Rect& a = line_rects[i];
          const Rect& b = line_rects[j];
          if (a.intersects(b)) continue;
          const Coord prl = std::max(run_length(a.x_iv(), b.x_iv()),
                                     run_length(a.y_iv(), b.y_iv()));
          if (prl <= 0) continue;
          const Coord gap = std::max(a.x_gap(b), a.y_gap(b));
          if (gap < wl.notch_spacing) ++report.notch_violations;
        }
      }
      // Short-edge rule: adjacent boundary edges must not both be short.
      const auto edges = union_boundary(rects);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].length() >= wl.short_edge_len) continue;
        for (std::size_t j = i + 1; j < edges.size(); ++j) {
          if (edges[j].length() >= wl.short_edge_len) continue;
          const bool adjacent = edges[i].a == edges[j].a ||
                                edges[i].a == edges[j].b ||
                                edges[i].b == edges[j].a ||
                                edges[i].b == edges[j].b;
          if (adjacent) {
            ++report.short_edge_violations;
            break;
          }
        }
      }
    }
  }
  return report;
}

}  // namespace bonn
