#include "src/fuzz/fuzzer.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/db/instance_gen.hpp"
#include "src/detailed/routing_space.hpp"
#include "src/detailed/transaction.hpp"
#include "src/drc/audit.hpp"
#include "src/fastgrid/oracle.hpp"
#include "src/router/bonnroute.hpp"
#include "src/tech/layer.hpp"
#include "src/tech/shapes.hpp"
#include "src/util/rng.hpp"

namespace bonn::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Fuzz chip

Chip make_fuzz_chip(const FuzzParams& p) {
  ChipParams cp;
  cp.layers = p.layers;
  cp.tiles_x = 2;
  cp.tiles_y = 2;
  cp.tracks_per_tile = 20;
  cp.num_nets = 12;
  cp.num_macros = 1;
  cp.power_stripes = true;
  cp.seed = p.seed;
  return generate_chip(cp);
}

// ---------------------------------------------------------------------------
// Operation generation

std::vector<FuzzOp> gen_ops(const FuzzParams& p) {
  Rng rng(p.seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL);
  std::vector<FuzzOp> ops(static_cast<std::size_t>(std::max(0, p.steps)));
  for (FuzzOp& op : ops) {
    using K = FuzzOp::Kind;
    const std::uint64_t w = rng.below(100);
    K k;
    if (w < 24) k = K::kCommitPath;
    else if (w < 33) k = K::kRipNet;
    else if (w < 42) k = K::kRemoveRecorded;
    else if (w < 56) k = K::kInsertShape;
    else if (w < 66) k = K::kRemoveShape;
    else if (w < 82) k = K::kHold;
    else if (w < 89) k = K::kTxnBegin;
    else if (w < 94) k = K::kTxnCommit;
    else if (w < 98) k = K::kTxnRollback;
    else k = p.with_eco ? K::kEcoReroute : K::kCommitPath;
    op.kind = k;
    op.a = rng.next();
    op.b = rng.next();
    op.c = rng.next();
    op.d = rng.next();
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Shadow occupancy model

struct ModelEntry {
  Shape s;
  RipupLevel level = kStandard;
};

struct ShadowModel {
  std::vector<ModelEntry> entries;  ///< multiset of everything in the grid
  std::vector<ModelEntry> raw;      ///< subset inserted via insert_shape
  std::vector<std::vector<RoutedPath>> paths;
  std::vector<std::vector<std::uint64_t>> ids;

  void add(const Shape& s, RipupLevel level) { entries.push_back({s, level}); }
  bool remove(const Shape& s, RipupLevel level) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].s == s && entries[i].level == level) {
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
};

/// One cell-clipped occupancy piece, in the exact representation the shape
/// grid reports.  Ripup is included: it is a per-shape attribute (the level
/// the shape was inserted at), so the differential can check it exactly.
using Piece =
    std::tuple<int, Coord, Coord, Coord, Coord, int, int, Coord, int, int>;

Piece make_piece(int layer, const Rect& r, ShapeKind kind, ShapeClass cls,
                 Coord rule_width, int net, RipupLevel ripup) {
  return {layer,           r.xlo, r.ylo, r.xhi, r.yhi, static_cast<int>(kind),
          static_cast<int>(cls), rule_width, net,   static_cast<int>(ripup)};
}

std::string piece_str(const Piece& p) {
  std::ostringstream os;
  os << "layer " << std::get<0>(p) << " rect (" << std::get<1>(p) << ","
     << std::get<2>(p) << ")-(" << std::get<3>(p) << "," << std::get<4>(p)
     << ") kind " << std::get<5>(p) << " cls " << std::get<6>(p) << " width "
     << std::get<7>(p) << " net " << std::get<8>(p) << " ripup "
     << std::get<9>(p);
  return os.str();
}

/// cell_span replica — must match ShapeGrid exactly (half-open semantics: a
/// shape ending on a cell boundary does not spill into the next cell).
std::pair<Coord, Coord> cell_span(Coord lo, Coord hi, Coord origin, Coord cell,
                                  Coord num_cells) {
  lo = std::max(lo, origin);
  hi = std::min(hi, origin + cell * num_cells);
  if (lo > hi) return {0, -1};
  Coord ilo = (lo - origin) / cell;
  Coord ihi = (hi - origin) / cell;
  if ((hi - origin) % cell == 0 && hi > lo) --ihi;
  ilo = std::clamp<Coord>(ilo, 0, num_cells - 1);
  ihi = std::clamp<Coord>(ihi, 0, num_cells - 1);
  return {ilo, ihi};
}

/// Brute-force decomposition of one shape into the cell-clipped pieces the
/// shape grid would store and report for a query window.
void decompose(const Tech& tech, const Rect& die, const Shape& s,
               RipupLevel ripup, const Rect& window, std::vector<Piece>& out) {
  const int g = s.global_layer;
  const int w = is_wiring(g) ? wiring_of_global(g) : via_of_global(g);
  const WiringLayer& wl = tech.wiring[static_cast<std::size_t>(w)];
  const bool horiz = wl.pref == Dir::kHorizontal;
  const Coord cell = wl.pitch;
  const Coord origin_along = horiz ? die.xlo : die.ylo;
  const Coord origin_cross = horiz ? die.ylo : die.xlo;
  const Coord along_len = horiz ? die.width() : die.height();
  const Coord cross_len = horiz ? die.height() : die.width();
  const Coord cells_per_row = (along_len + cell - 1) / cell;
  const Coord num_rows = (cross_len + cell - 1) / cell;
  const Interval along = horiz ? s.rect.x_iv() : s.rect.y_iv();
  const Interval cross = horiz ? s.rect.y_iv() : s.rect.x_iv();
  const auto [rlo, rhi] =
      cell_span(cross.lo, cross.hi, origin_cross, cell, num_rows);
  const auto [clo, chi] =
      cell_span(along.lo, along.hi, origin_along, cell, cells_per_row);
  const Coord width = s.rect.rule_width();
  for (Coord r = rlo; r <= rhi; ++r) {
    for (Coord c = clo; c <= chi; ++c) {
      const Coord alo = origin_along + c * cell;
      const Coord xlo = origin_cross + r * cell;
      const Rect cell_r = horiz ? Rect{alo, xlo, alo + cell, xlo + cell}
                                : Rect{xlo, alo, xlo + cell, alo + cell};
      const Rect clip = s.rect.intersection(cell_r);
      // query() reports a stored piece iff it intersects the window
      // (degenerate zero-area clips included, truly empty ones not).
      if (!clip.intersects(window)) continue;
      out.push_back(make_piece(g, clip, s.kind, s.cls, width, s.net, ripup));
    }
  }
}

// ---------------------------------------------------------------------------
// The driver: executes ops against a RoutingSpace and the shadow model

struct StepFail {
  std::size_t step = 0;
  std::string msg;
};

class Driver {
 public:
  Driver(const Chip& chip, const FuzzParams& p)
      : chip_(&chip), p_(p), rs_(std::make_unique<RoutingSpace>(chip)) {
    for (const Shape& s : chip.fixed_shapes()) fixed_.push_back({s, kFixed});
    model_.entries = fixed_;
    model_.paths.resize(chip.nets.size());
    model_.ids.resize(chip.nets.size());
    levels_.emplace_back();  // base level (no transaction)
  }

  ~Driver() {
    // Orderly unwind even on a failure exit: transactions innermost-first
    // (the thread-local stack is strictly LIFO).
    while (!levels_.empty()) {
      Level lv = std::move(levels_.back());
      levels_.pop_back();
      if (lv.txn && lv.txn->open()) {
        try {
          lv.txn->rollback();
        } catch (...) {  // audit failures must not escape the destructor
        }
      }
    }
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Execute one op.  Returns a divergence description on failure.  Updates
  /// affected_ with the planar hull of everything the op touched.
  std::optional<std::string> apply(const FuzzOp& op) {
    affected_ = Rect{};  // empty
    const int nets = chip_->num_nets();
    using K = FuzzOp::Kind;
    switch (op.kind) {
      case K::kCommitPath: {
        const int net = static_cast<int>(op.a % static_cast<std::uint64_t>(nets));
        const RoutedPath path = make_path(net, op);
        const std::uint64_t id = rs_->commit_path(path);
        const RipupLevel level = rs_->net_level(net);
        for (const Shape& s : expand_path(path, chip_->tech)) {
          model_.add(s, level);
          affected_ = affected_.hull(s.rect);
        }
        model_.paths[static_cast<std::size_t>(net)].push_back(path);
        model_.ids[static_cast<std::size_t>(net)].push_back(id);
        break;
      }
      case K::kRipNet: {
        const int net = static_cast<int>(op.a % static_cast<std::uint64_t>(nets));
        const RipupLevel level = rs_->net_level(net);
        auto& paths = model_.paths[static_cast<std::size_t>(net)];
        for (const RoutedPath& p : paths) {
          for (const Shape& s : expand_path(p, chip_->tech)) {
            if (!model_.remove(s, level))
              return "shadow model missing shape during rip_net";
            affected_ = affected_.hull(s.rect);
          }
        }
        rs_->rip_net(net);
        paths.clear();
        model_.ids[static_cast<std::size_t>(net)].clear();
        break;
      }
      case K::kRemoveRecorded: {
        const int net = static_cast<int>(op.a % static_cast<std::uint64_t>(nets));
        auto& ids = model_.ids[static_cast<std::size_t>(net)];
        if (ids.empty()) break;
        const std::size_t idx = static_cast<std::size_t>(op.b % ids.size());
        auto& paths = model_.paths[static_cast<std::size_t>(net)];
        const RipupLevel level = rs_->net_level(net);
        for (const Shape& s : expand_path(paths[idx], chip_->tech)) {
          if (!model_.remove(s, level))
            return "shadow model missing shape during remove_recorded";
          affected_ = affected_.hull(s.rect);
        }
        rs_->remove_recorded_by_id(net, ids[idx]);
        paths.erase(paths.begin() + static_cast<std::ptrdiff_t>(idx));
        ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case K::kInsertShape: {
        const Shape s = make_shape(op);
        const RipupLevel level = (op.d % 8 == 0) ? kCritical : kStandard;
        rs_->insert_shape(s, level);
        model_.add(s, level);
        model_.raw.push_back({s, level});
        affected_ = s.rect;
        break;
      }
      case K::kRemoveShape: {
        if (model_.raw.empty()) break;
        const std::size_t idx = static_cast<std::size_t>(op.a % model_.raw.size());
        const ModelEntry e = model_.raw[idx];
        rs_->remove_shape(e.s, e.level);
        if (!model_.remove(e.s, e.level))
          return "shadow model missing raw shape during remove_shape";
        model_.raw.erase(model_.raw.begin() + static_cast<std::ptrdiff_t>(idx));
        affected_ = e.s.rect;
        break;
      }
      case K::kHold: {
        // The §4.4 search hold in one step: a nested transaction takes one
        // net's pins and recorded wiring out, the fast grid must match the
        // oracle around them, and the rollback puts them back (the check
        // after this op verifies the restore against the shadow model).
        const int net = static_cast<int>(op.a % static_cast<std::uint64_t>(nets));
        const std::vector<Shape> pins = chip_->pin_shapes(net);
        std::vector<Shape> wiring;
        for (const RoutedPath& p : model_.paths[static_cast<std::size_t>(net)])
          for (const Shape& s : expand_path(p, chip_->tech)) wiring.push_back(s);
        if (pins.empty() && wiring.empty()) break;
        for (const Shape& s : pins) affected_ = affected_.hull(s.rect);
        for (const Shape& s : wiring) affected_ = affected_.hull(s.rect);
        RoutingTransaction hold(*rs_);
        rs_->remove_shapes(pins, kFixed);
        rs_->remove_shapes(wiring, rs_->net_level(net));
        std::string why;
        const std::size_t diffs =
            fastgrid_diff_vs_naive(rs_->fast(), chip_->tech, rs_->tg(),
                                   rs_->checker(), &why, &affected_);
        hold.rollback();
        if (diffs != 0)
          return "fast grid diverges from naive recomputation during a hold "
                 "at " + std::to_string(diffs) + " station(s):\n" + why;
        break;
      }
      case K::kTxnBegin: {
        if (levels_.size() >= 5) break;  // nesting depth cap
        Level lv;
        lv.txn = std::make_unique<RoutingTransaction>(*rs_);
        lv.snapshot = model_;
        if (p_.drc_checks) {
          lv.drc = audit_routing(*chip_, rs_->result());
          lv.have_drc = true;
        }
        levels_.push_back(std::move(lv));
        break;
      }
      case K::kTxnCommit: {
        if (levels_.size() == 1) break;
        Level lv = std::move(levels_.back());
        levels_.pop_back();
        affected_ = lv.txn->dirty().bbox;
        lv.txn->commit();
        break;
      }
      case K::kTxnRollback: {
        if (levels_.size() == 1) break;
        Level lv = std::move(levels_.back());
        levels_.pop_back();
        affected_ = lv.txn->dirty().bbox;
        lv.txn->rollback();
        model_ = std::move(lv.snapshot);
        if (lv.have_drc) {
          const DrcReport now = audit_routing(*chip_, rs_->result());
          if (!(now == lv.drc))
            return "transaction rollback not DRC-neutral (audit_routing "
                   "differs from the pre-transaction baseline)";
        }
        break;
      }
      case K::kEcoReroute: {
        if (!p_.with_eco) break;
        if (levels_.size() > 1) break;  // bulk reload: no open transactions
        std::vector<int> sel{static_cast<int>(op.a % static_cast<std::uint64_t>(nets))};
        if (op.b % 2 == 1) {
          const int second =
              static_cast<int>((op.b >> 8) % static_cast<std::uint64_t>(nets));
          if (second != sel[0]) sel.push_back(second);
        }
        const RoutingResult prior = rs_->result();
        FlowParams fp;
        fp.tiles_x = 2;
        fp.tiles_y = 2;
        fp.threads = 1;
        fp.run_cleanup = false;
        fp.obs.metrics = false;
        // Cancel-at-random-step: every fourth ECO runs under a budget that
        // deterministically trips after a few polls, exercising the
        // wind-down path mid-reroute.  The invariants below must hold for
        // the partial result exactly as for a completed one — every net
        // either kept its prior wiring or rerouted transactionally.
        if (op.d % 4 == 0) {
          fp.budget.poll_trip = static_cast<std::int64_t>(op.c % 64);
        }
        RoutingResult out(chip_->num_nets());
        const EcoReport eco = reroute_nets(*chip_, prior, sel, fp, &out);
        if (eco.outcome == FlowOutcome::kFailed)
          return "eco reroute failed on valid inputs: " +
                 (eco.errors.empty() ? std::string("(no errors)")
                                     : eco.errors.front().message);
        rs_->load_result(out);
        // Rebuild the shadow model from scratch: fixed + raw survive the
        // reload; recorded wiring is replaced wholesale, ids restart at 0.
        model_.entries = fixed_;
        for (const ModelEntry& e : model_.raw) model_.entries.push_back(e);
        model_.paths = out.net_paths;
        for (std::size_t n = 0; n < model_.paths.size(); ++n) {
          auto& ids = model_.ids[n];
          ids.clear();
          const RipupLevel level = rs_->net_level(static_cast<int>(n));
          for (std::size_t i = 0; i < model_.paths[n].size(); ++i) {
            ids.push_back(i);
            for (const Shape& s : expand_path(model_.paths[n][i], chip_->tech))
              model_.add(s, level);
          }
        }
        full_region_ = true;  // everything may have moved
        break;
      }
    }
    return std::nullopt;
  }

  /// Cross-check the routing space against the shadow model.
  std::optional<std::string> check(bool full) {
    // (1) Recorded-path / stable-id mirrors.
    for (int n = 0; n < chip_->num_nets(); ++n) {
      if (rs_->paths(n) != model_.paths[static_cast<std::size_t>(n)])
        return "recorded paths of net " + std::to_string(n) +
               " diverge from the shadow model";
      if (rs_->path_ids(n) != model_.ids[static_cast<std::size_t>(n)])
        return "path ids of net " + std::to_string(n) +
               " diverge from the shadow model";
    }
    // (2) Exact occupancy: every cell-clipped piece the grid reports, and
    // nothing else, with identical kind/class/width/net.
    const Rect window = chip_->die.expanded(200);
    std::vector<Piece> got;
    for (int g = 0; g < rs_->grid().num_layers(); ++g) {
      rs_->grid().query(g, window, [&](const GridShape& gs) {
        got.push_back(make_piece(g, gs.rect, gs.kind, gs.cls, gs.rule_width,
                                 gs.net, gs.ripup));
      });
    }
    std::vector<Piece> want;
    for (const ModelEntry& e : model_.entries)
      decompose(chip_->tech, chip_->die, e.s, e.level, window, want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      std::string msg = "shape-grid occupancy diverges from brute force (" +
                        std::to_string(got.size()) + " grid pieces vs " +
                        std::to_string(want.size()) + " model pieces)";
      const std::size_t m = std::min(got.size(), want.size());
      for (std::size_t i = 0; i < m; ++i) {
        if (got[i] != want[i]) {
          msg += "\n  first diff: grid has " + piece_str(got[i]) +
                 ", model has " + piece_str(want[i]);
          break;
        }
      }
      return msg;
    }
    // (3) Structural invariants + fast grid vs the naive oracle,
    // region-limited to this op's footprint unless a full check is due.
    const bool use_full = full || full_region_;
    full_region_ = false;
    std::string why;
    const Rect region = affected_;
    const Rect* rp = use_full ? nullptr : &region;
    if (!use_full && region.empty()) return std::nullopt;  // no-op op
    if (!rs_->check_invariants(&why, rp))
      return "check_invariants failed: " + why;
    return std::nullopt;
  }

  /// Roll back all open transactions and run a final full-die check.
  std::optional<std::string> finish() {
    while (levels_.size() > 1) {
      FuzzOp rb;
      rb.kind = FuzzOp::Kind::kTxnRollback;
      if (auto f = apply(rb)) return f;
    }
    full_region_ = true;
    return check(/*full=*/true);
  }

 private:
  struct Level {
    std::unique_ptr<RoutingTransaction> txn;  ///< null for the base level
    ShadowModel snapshot;  ///< model state when the transaction opened
    DrcReport drc;         ///< DRC baseline for rollback neutrality
    bool have_drc = false;
  };

  /// Random stick path for `net`: a preferred-direction wire, optionally a
  /// via and a second wire on the next layer.  Coordinates are mostly
  /// in-die, with occasional overshoot past the boundary for edge coverage.
  RoutedPath make_path(int net, const FuzzOp& op) const {
    const Tech& tech = chip_->tech;
    const int L = tech.num_wiring();
    const Rect die = chip_->die;
    RoutedPath p;
    p.net = net;
    p.wiretype = static_cast<int>((op.d >> 60) % 2);  // standard / wide
    const int l =
        static_cast<int>(op.b % static_cast<std::uint64_t>(std::max(1, L - 1)));
    const bool horiz = tech.pref(l) == Dir::kHorizontal;
    const auto snap10 = [](Coord v) { return (v / 10) * 10; };
    Coord x = die.xlo +
              snap10(static_cast<Coord>(op.c % static_cast<std::uint64_t>(die.width() + 1)));
    Coord y = die.ylo + snap10(static_cast<Coord>(
                            (op.c >> 24) % static_cast<std::uint64_t>(die.height() + 1)));
    if ((op.c >> 56) % 16 == 0) {  // boundary bias: start near the die edge
      if (horiz)
        x = die.xhi - 20;
      else
        y = die.yhi - 20;
    }
    const Coord len = 100 + snap10(static_cast<Coord>(op.d % 1000));
    const Point s{x, y};
    const Point e = horiz ? Point{x + len, y} : Point{x, y + len};
    p.wires.push_back({s, e, l});
    const int style = static_cast<int>((op.d >> 32) % 3);
    if (style >= 1 && l + 1 < L) {
      p.vias.push_back({e, l});
      if (style == 2) {
        const Coord len2 = 100 + snap10(static_cast<Coord>((op.d >> 16) % 800));
        const bool h2 = tech.pref(l + 1) == Dir::kHorizontal;
        const Point e2 = h2 ? Point{e.x + len2, e.y} : Point{e.x, e.y + len2};
        p.wires.push_back({e, e2, l + 1});
      }
    }
    return p;
  }

  /// Random raw shape: wire/jog/pad/blockage on wiring layers, cut/
  /// projection/blockage on via layers; occasionally netless or partly
  /// outside the die.
  Shape make_shape(const FuzzOp& op) const {
    const Rect die = chip_->die;
    const int num_g = rs_->grid().num_layers();
    Shape s;
    s.global_layer =
        static_cast<int>(op.a % static_cast<std::uint64_t>(num_g));
    if (is_wiring(s.global_layer)) {
      static constexpr ShapeKind kinds[4] = {ShapeKind::kWire, ShapeKind::kJog,
                                             ShapeKind::kViaPad,
                                             ShapeKind::kBlockage};
      s.kind = kinds[op.b % 4];
    } else {
      static constexpr ShapeKind kinds[4] = {ShapeKind::kViaCut,
                                             ShapeKind::kViaCut,
                                             ShapeKind::kViaProj,
                                             ShapeKind::kBlockage};
      s.kind = kinds[op.b % 4];
    }
    s.cls = static_cast<ShapeClass>((op.c >> 48) % 2);
    s.net = ((op.b >> 8) % 5 == 0)
                ? -1
                : static_cast<int>((op.b >> 8) %
                                   static_cast<std::uint64_t>(chip_->num_nets()));
    const auto snap10 = [](Coord v) { return (v / 10) * 10; };
    // Positions range 200 dbu beyond every die edge for boundary coverage.
    const Coord x0 =
        die.xlo - 200 +
        snap10(static_cast<Coord>(op.c % static_cast<std::uint64_t>(die.width() + 401)));
    const Coord y0 =
        die.ylo - 200 +
        snap10(static_cast<Coord>((op.c >> 24) %
                                  static_cast<std::uint64_t>(die.height() + 401)));
    const Coord w = 10 + snap10(static_cast<Coord>(op.d % 300));
    const Coord h = 10 + snap10(static_cast<Coord>((op.d >> 16) % 300));
    s.rect = Rect{x0, y0, x0 + w, y0 + h};
    return s;
  }

  const Chip* chip_;
  FuzzParams p_;
  std::unique_ptr<RoutingSpace> rs_;  // declared before levels_:
                                      // transactions must die first
  std::vector<ModelEntry> fixed_;     ///< chip fixed shapes at kFixed
  ShadowModel model_;
  std::vector<Level> levels_;  ///< [0] = base; back() = innermost
  Rect affected_;              ///< planar hull the last op touched
  bool full_region_ = false;   ///< next check must be full-die
};

// ---------------------------------------------------------------------------
// Episode execution

std::optional<StepFail> run_one(const Chip& chip, const FuzzParams& p,
                                const std::vector<FuzzOp>& ops,
                                std::int64_t* ops_executed = nullptr,
                                std::int64_t* checks = nullptr) {
  Driver d(chip, p);
  const int every = std::max(1, p.check_every);
  const int full_every = std::max(1, p.full_check_every);
  std::int64_t check_count = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    try {
      if (auto f = d.apply(ops[i])) return StepFail{i, *f};
      if ((i + 1) % static_cast<std::size_t>(every) == 0) {
        ++check_count;
        if (checks != nullptr) ++*checks;
        const bool full = check_count % full_every == 0;
        if (auto f = d.check(full)) return StepFail{i, *f};
      }
    } catch (const std::exception& e) {
      return StepFail{i, std::string("exception: ") + e.what()};
    }
    if (ops_executed != nullptr) ++*ops_executed;
  }
  try {
    if (checks != nullptr) ++*checks;
    if (auto f = d.finish()) return StepFail{ops.size(), *f};
  } catch (const std::exception& e) {
    return StepFail{ops.size(), std::string("exception during unwind: ") + e.what()};
  }
  return std::nullopt;
}

/// Chunk-removal minimization (ddmin-style).  Sound because op
/// interpretation is self-healing: any subsequence is a valid sequence.
std::vector<FuzzOp> shrink(const Chip& chip, const FuzzParams& p,
                           const std::vector<FuzzOp>& ops,
                           std::size_t fail_step) {
  std::vector<FuzzOp> cur(ops.begin(),
                          ops.begin() + static_cast<std::ptrdiff_t>(std::min(
                                            ops.size(), fail_step + 1)));
  int budget = std::max(0, p.shrink_budget);
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (std::size_t n = std::max<std::size_t>(cur.size() / 2, 1);; n /= 2) {
      for (std::size_t i = 0; i < cur.size() && budget > 0;) {
        std::vector<FuzzOp> cand;
        cand.reserve(cur.size());
        cand.insert(cand.end(), cur.begin(),
                    cur.begin() + static_cast<std::ptrdiff_t>(i));
        cand.insert(cand.end(),
                    cur.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(cur.size(), i + n)),
                    cur.end());
        --budget;
        if (auto f = run_one(chip, p, cand)) {
          cur.assign(cand.begin(),
                     cand.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(cand.size(), f->step + 1)));
          changed = true;
        } else {
          i += n;
        }
      }
      if (n == 1) break;
    }
  }
  return cur;
}

constexpr const char* kKindNames[] = {
    "commit_path", "rip_net",   "remove_recorded", "insert_shape",
    "remove_shape", "hold",     "txn_begin",       "txn_commit",
    "txn_rollback", "eco_reroute"};

}  // namespace

// ---------------------------------------------------------------------------
// Script I/O

std::string format_script(const FuzzParams& params,
                          const std::vector<FuzzOp>& ops) {
  std::ostringstream os;
  os << "# bonn_fuzz failure script v1 (replay: bonn_fuzz --replay <file>)\n";
  os << "seed " << params.seed << "\n";
  os << "layers " << params.layers << "\n";
  os << "check_every " << params.check_every << "\n";
  os << "full_check_every " << params.full_check_every << "\n";
  os << "with_eco " << (params.with_eco ? 1 : 0) << "\n";
  os << "drc_checks " << (params.drc_checks ? 1 : 0) << "\n";
  os << "steps " << ops.size() << "\n";
  for (const FuzzOp& op : ops) {
    os << "op " << kKindNames[static_cast<std::size_t>(op.kind)] << " " << op.a
       << " " << op.b << " " << op.c << " " << op.d << "\n";
  }
  return os.str();
}

bool parse_script(const std::string& text, FuzzParams* params,
                  std::vector<FuzzOp>* ops, std::string* err) {
  FuzzParams p;
  std::vector<FuzzOp> out;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (err != nullptr)
      *err = "line " + std::to_string(lineno) + ": " + msg;
    return false;
  };
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key.empty() || key[0] == '#') continue;
    if (key == "op") {
      std::string name;
      FuzzOp op;
      if (!(ls >> name >> op.a >> op.b >> op.c >> op.d))
        return fail("malformed op line");
      bool found = false;
      for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (name == kKindNames[k]) {
          op.kind = static_cast<FuzzOp::Kind>(k);
          found = true;
          break;
        }
      }
      if (!found) return fail("unknown op kind '" + name + "'");
      out.push_back(op);
    } else {
      std::int64_t v = 0;
      if (!(ls >> v)) return fail("malformed value for key '" + key + "'");
      if (key == "seed") p.seed = static_cast<std::uint64_t>(v);
      else if (key == "layers") p.layers = static_cast<int>(v);
      else if (key == "check_every") p.check_every = static_cast<int>(v);
      else if (key == "full_check_every") p.full_check_every = static_cast<int>(v);
      else if (key == "with_eco") p.with_eco = v != 0;
      else if (key == "drc_checks") p.drc_checks = v != 0;
      else if (key == "steps") { /* informational */ }
      else return fail("unknown key '" + key + "'");
    }
  }
  if (params != nullptr) *params = p;
  if (ops != nullptr) *ops = std::move(out);
  return true;
}

// ---------------------------------------------------------------------------
// Entry points

FuzzResult run_fuzz(const FuzzParams& params) {
  const Chip chip = make_fuzz_chip(params);
  const std::vector<FuzzOp> ops = gen_ops(params);
  FuzzResult res;
  const auto fail = run_one(chip, params, ops, &res.ops_executed, &res.checks);
  if (!fail) return res;
  const std::vector<FuzzOp> minimal = shrink(chip, params, ops, fail->step);
  const auto refail = run_one(chip, params, minimal);
  FuzzFailure ff;
  ff.ops = minimal;
  ff.failing_step = refail ? refail->step : fail->step;
  ff.message = refail ? refail->msg : fail->msg;
  std::string path = params.artifact_dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "bonn_fuzz_fail_seed" + std::to_string(params.seed) + ".txt";
  std::ofstream out(path);
  if (out) {
    out << format_script(params, minimal);
    out << "# failure at step " << ff.failing_step << ": ";
    // first line of the message only — keep the script grep-friendly
    const auto nl = ff.message.find('\n');
    out << ff.message.substr(0, nl) << "\n";
    ff.script_path = path;
  }
  res.failure = std::move(ff);
  return res;
}

FuzzResult replay_script(const std::string& text, std::string* err) {
  FuzzParams p;
  std::vector<FuzzOp> ops;
  FuzzResult res;
  if (!parse_script(text, &p, &ops, err)) {
    FuzzFailure ff;
    ff.message = err != nullptr ? *err : "parse error";
    res.failure = std::move(ff);
    return res;
  }
  const Chip chip = make_fuzz_chip(p);
  const auto fail = run_one(chip, p, ops, &res.ops_executed, &res.checks);
  if (fail) {
    FuzzFailure ff;
    ff.ops = std::move(ops);
    ff.failing_step = fail->step;
    ff.message = fail->msg;
    res.failure = std::move(ff);
  }
  return res;
}

}  // namespace bonn::fuzz
