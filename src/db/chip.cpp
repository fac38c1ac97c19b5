#include "src/db/chip.hpp"

#include <cmath>

#include "src/util/hash.hpp"

namespace bonn {

namespace {
const Pin& pins_ref(const Chip& chip, int pid) {
  static const Pin kEmpty;  // out-of-range ids digest as an empty pin
  if (pid < 0 || pid >= static_cast<int>(chip.pins.size())) return kEmpty;
  return chip.pins[static_cast<std::size_t>(pid)];
}
}  // namespace

std::vector<Point> Chip::net_terminals(int net) const {
  std::vector<Point> out;
  const Net& n = nets[static_cast<std::size_t>(net)];
  out.reserve(n.pins.size());
  for (int pid : n.pins) out.push_back(pins[static_cast<std::size_t>(pid)].anchor());
  return out;
}

std::vector<Shape> Chip::fixed_shapes() const {
  std::vector<Shape> out = blockages;
  for (const Pin& p : pins) {
    for (const RectL& rl : p.shapes) {
      out.push_back(Shape{rl.r, global_of_wiring(rl.layer), ShapeKind::kPin,
                          /*cls=*/0, p.net});
    }
  }
  return out;
}

std::vector<Shape> Chip::pin_shapes(int net) const {
  std::vector<Shape> out;
  for (int pid : nets[static_cast<std::size_t>(net)].pins) {
    for (const RectL& rl : pins[static_cast<std::size_t>(pid)].shapes) {
      out.push_back(Shape{rl.r, global_of_wiring(rl.layer), ShapeKind::kPin,
                          /*cls=*/0, net});
    }
  }
  return out;
}

Coord RoutingResult::total_wirelength() const {
  Coord len = 0;
  for (const auto& paths : net_paths) {
    for (const RoutedPath& p : paths) len += p.wirelength();
  }
  return len;
}

std::int64_t RoutingResult::via_count() const {
  std::int64_t vias = 0;
  for (const auto& paths : net_paths) {
    for (const RoutedPath& p : paths) vias += static_cast<std::int64_t>(p.vias.size());
  }
  return vias;
}

Coord RoutingResult::net_wirelength(int net) const {
  Coord len = 0;
  for (const RoutedPath& p : net_paths[static_cast<std::size_t>(net)]) {
    len += p.wirelength();
  }
  return len;
}

std::uint64_t chip_digest(const Chip& chip) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_i64(h, chip.die.xlo);
  h = fnv1a_i64(h, chip.die.ylo);
  h = fnv1a_i64(h, chip.die.xhi);
  h = fnv1a_i64(h, chip.die.yhi);
  h = fnv1a_i64(h, chip.tech.num_wiring());
  for (const Shape& b : chip.blockages) {
    h = fnv1a_i64(h, b.global_layer);
    h = fnv1a_i64(h, static_cast<std::int64_t>(b.cls));
    h = fnv1a_i64(h, b.rect.xlo);
    h = fnv1a_i64(h, b.rect.ylo);
    h = fnv1a_i64(h, b.rect.xhi);
    h = fnv1a_i64(h, b.rect.yhi);
  }
  h = fnv1a_u64(h, chip.nets.size());
  for (const Net& n : chip.nets) {
    h = fnv1a_str(h, n.name);
    h = fnv1a_i64(h, n.wiretype);
    h = fnv1a_double(h, n.weight);
    h = fnv1a_u64(h, n.pins.size());
    for (int pid : n.pins) {
      const Pin& p = pins_ref(chip, pid);
      for (const RectL& rl : p.shapes) {
        h = fnv1a_i64(h, rl.layer);
        h = fnv1a_i64(h, rl.r.xlo);
        h = fnv1a_i64(h, rl.r.ylo);
        h = fnv1a_i64(h, rl.r.xhi);
        h = fnv1a_i64(h, rl.r.yhi);
      }
    }
  }
  return h;
}

std::vector<FlowError> validate_chip(const Chip& chip) {
  std::vector<FlowError> errors;
  const int layers = chip.tech.num_wiring();
  if (layers < 2) {
    append_error(errors, {"chip.tech", "technology needs >= 2 wiring layers",
                          -1});
  }
  if (chip.die.xlo >= chip.die.xhi || chip.die.ylo >= chip.die.yhi) {
    append_error(errors, {"chip.die", "die area is empty", -1});
  }
  const int npins = static_cast<int>(chip.pins.size());
  for (std::size_t b = 0; b < chip.blockages.size(); ++b) {
    const Shape& s = chip.blockages[b];
    if (s.global_layer < 0 || s.global_layer >= 2 * layers) {
      append_error(errors,
                   {"chip.blockage_layer",
                    "blockage " + std::to_string(b) + " on global layer " +
                        std::to_string(s.global_layer) +
                        ", valid range is [0, " + std::to_string(2 * layers) +
                        ")",
                    -1});
    }
  }
  std::vector<char> pin_seen(chip.pins.size(), 0);
  for (const Net& n : chip.nets) {
    const int expect_id = static_cast<int>(&n - chip.nets.data());
    if (n.id != expect_id) {
      append_error(errors,
                   {"chip.net_id",
                    "net '" + n.name + "' has id " + std::to_string(n.id) +
                        " but sits at index " + std::to_string(expect_id),
                    expect_id});
    }
    for (int pid : n.pins) {
      if (pid < 0 || pid >= npins) {
        append_error(errors,
                     {"chip.net_pin_range",
                      "net '" + n.name + "' references pin " +
                          std::to_string(pid) + ", valid range is [0, " +
                          std::to_string(npins) + ")",
                      n.id});
        continue;
      }
      const Pin& p = chip.pins[static_cast<std::size_t>(pid)];
      if (p.net != n.id) {
        append_error(errors,
                     {"chip.pin_net_mismatch",
                      "pin " + std::to_string(pid) + " claims net " +
                          std::to_string(p.net) + " but is listed by net " +
                          std::to_string(n.id),
                      n.id});
      }
      if (pin_seen[static_cast<std::size_t>(pid)]) {
        append_error(errors,
                     {"chip.pin_shared",
                      "pin " + std::to_string(pid) +
                          " is listed by more than one net",
                      n.id});
      }
      pin_seen[static_cast<std::size_t>(pid)] = 1;
      if (p.shapes.empty()) {
        append_error(errors,
                     {"chip.pin_no_shapes",
                      "pin " + std::to_string(pid) + " has no shapes", n.id});
      }
      for (const RectL& rl : p.shapes) {
        if (rl.layer < 0 || rl.layer >= layers) {
          append_error(errors,
                       {"chip.pin_layer",
                        "pin " + std::to_string(pid) + " shape on layer " +
                            std::to_string(rl.layer) +
                            ", valid range is [0, " + std::to_string(layers) +
                            ")",
                        n.id});
        }
        if (rl.r.xlo > rl.r.xhi || rl.r.ylo > rl.r.yhi) {
          append_error(errors,
                       {"chip.pin_rect",
                        "pin " + std::to_string(pid) + " has an inverted rect",
                        n.id});
        }
      }
    }
    if (!std::isfinite(n.weight) || n.weight < 0) {
      append_error(errors,
                   {"chip.net_weight",
                    "net '" + n.name + "' has non-finite or negative weight",
                    n.id});
    }
  }
  return errors;
}

std::vector<FlowError> validate_result(const Chip& chip,
                                       const RoutingResult& result) {
  std::vector<FlowError> errors;
  const int layers = chip.tech.num_wiring();
  if (result.net_paths.size() != chip.nets.size()) {
    append_error(errors,
                 {"result.net_count",
                  "result has " + std::to_string(result.net_paths.size()) +
                      " nets but the chip has " +
                      std::to_string(chip.nets.size()),
                  -1});
    return errors;  // slots unusable; further checks would mislead
  }
  // Geometry slack: postprocessing patches (minimum-area extensions) may
  // poke slightly past the die, so reject only geometry that is wildly off.
  const Coord slack =
      std::max<Coord>(10'000, std::max(chip.die.width(), chip.die.height()));
  const Rect bound{chip.die.xlo - slack, chip.die.ylo - slack,
                   chip.die.xhi + slack, chip.die.yhi + slack};
  for (std::size_t net = 0; net < result.net_paths.size(); ++net) {
    for (const RoutedPath& p : result.net_paths[net]) {
      if (p.net != static_cast<int>(net)) {
        append_error(errors,
                     {"result.path_net",
                      "a path in net " + std::to_string(net) +
                          "'s slot claims net " + std::to_string(p.net),
                      static_cast<int>(net)});
        continue;
      }
      for (const WireStick& w : p.wires) {
        if (w.layer < 0 || w.layer >= layers) {
          append_error(errors,
                       {"result.wire_layer",
                        "net " + std::to_string(net) + " wire on layer " +
                            std::to_string(w.layer) +
                            ", valid range is [0, " + std::to_string(layers) +
                            ")",
                        static_cast<int>(net)});
        } else if (w.a.x != w.b.x && w.a.y != w.b.y) {
          append_error(errors,
                       {"result.wire_diagonal",
                        "net " + std::to_string(net) + " has a diagonal wire",
                        static_cast<int>(net)});
        } else if (w.a.x < bound.xlo || w.b.x > bound.xhi ||
                   w.a.y < bound.ylo || w.b.y > bound.yhi ||
                   w.b.x < bound.xlo || w.a.x > bound.xhi ||
                   w.b.y < bound.ylo || w.a.y > bound.yhi) {
          append_error(errors,
                       {"result.wire_offdie",
                        "net " + std::to_string(net) +
                            " has a wire far outside the die",
                        static_cast<int>(net)});
        }
      }
      for (const ViaStick& v : p.vias) {
        if (v.below < 0 || v.below >= layers - 1) {
          append_error(errors,
                       {"result.via_layer",
                        "net " + std::to_string(net) + " via below layer " +
                            std::to_string(v.below) +
                            ", valid range is [0, " +
                            std::to_string(layers - 1) + ")",
                        static_cast<int>(net)});
        } else if (v.at.x < bound.xlo || v.at.x > bound.xhi ||
                   v.at.y < bound.ylo || v.at.y > bound.yhi) {
          append_error(errors,
                       {"result.via_offdie",
                        "net " + std::to_string(net) +
                            " has a via far outside the die",
                        static_cast<int>(net)});
        }
      }
    }
  }
  return errors;
}

}  // namespace bonn
