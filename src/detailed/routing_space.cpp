#include "src/detailed/routing_space.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/detailed/transaction.hpp"
#include "src/fastgrid/oracle.hpp"
#include "src/geom/rect_union.hpp"
#include "src/util/assert.hpp"

namespace bonn {

RoutingSpace::RoutingSpace(const Chip& chip)
    : RoutingSpace(chip, RoutingResult(chip.num_nets())) {}

RoutingSpace::RoutingSpace(const Chip& chip, const RoutingResult& prior)
    : chip_(&chip) {
  BONN_CHECK(prior.net_paths.size() == chip.nets.size());
  const auto fixed = chip.fixed_shapes();
  tg_ = std::make_unique<TrackGraph>(chip.tech, chip.die, fixed);
  grid_ = std::make_unique<ShapeGrid>(chip.tech, chip.die);
  for (const Shape& s : fixed) grid_->insert(s, kFixed);
  checker_ = std::make_unique<DrcChecker>(chip.tech, *grid_);
  fast_ = std::make_unique<FastGrid>(chip.tech, *tg_, *checker_);
  net_paths_.resize(chip.nets.size());
  net_path_ids_.resize(chip.nets.size());
  next_path_id_.resize(chip.nets.size(), 0);
  insert_result(prior);
  fast_->rebuild();
}

RipupLevel RoutingSpace::net_level(int net) const {
  if (net < 0) return kFixed;
  const Net& n = chip_->nets[static_cast<std::size_t>(net)];
  return n.weight > 1.0 ? kCritical : kStandard;
}

void RoutingSpace::insert_shape(const Shape& s, RipupLevel level) {
  insert_shapes(std::span<const Shape>(&s, 1), level);
}

void RoutingSpace::remove_shape(const Shape& s, RipupLevel level) {
  remove_shapes(std::span<const Shape>(&s, 1), level);
}

// Every mutator journals *before* touching the grid, so the transaction can
// capture before-images of the affected row segments.

void RoutingSpace::insert_shapes(std::span<const Shape> shapes,
                                 RipupLevel level) {
  if (shapes.empty()) return;  // nothing to journal or refresh
  if (RoutingTransaction* txn = RoutingTransaction::current(this))
    txn->note_shapes(/*inserted=*/true, shapes, level);
  for (const Shape& s : shapes) grid_->insert(s, level);
  fast_->on_change_all(shapes);
}

void RoutingSpace::remove_shapes(std::span<const Shape> shapes,
                                 RipupLevel level) {
  if (shapes.empty()) return;  // nothing to journal or refresh
  if (RoutingTransaction* txn = RoutingTransaction::current(this))
    txn->note_shapes(/*inserted=*/false, shapes, level);
  for (const Shape& s : shapes) grid_->remove(s, level);
  fast_->on_change_all(shapes);
}

std::uint64_t RoutingSpace::commit_path(const RoutedPath& path) {
  BONN_CHECK(path.net >= 0);
  const auto net = static_cast<std::size_t>(path.net);
  const RipupLevel level = net_level(path.net);
  const auto shapes = expand_path(path, chip_->tech);
  const std::uint64_t id = next_path_id_[net];
  if (RoutingTransaction* txn = RoutingTransaction::current(this))
    txn->note_commit_path(path.net, id, shapes);
  for (const Shape& s : shapes) grid_->insert(s, level);
  fast_->on_change_all(shapes);
  next_path_id_[net] = id + 1;
  net_paths_[net].push_back(path);
  net_path_ids_[net].push_back(id);
  return id;
}

std::vector<RoutedPath> RoutingSpace::rip_net(int net) {
  auto& paths = net_paths_[static_cast<std::size_t>(net)];
  auto& ids = net_path_ids_[static_cast<std::size_t>(net)];
  const RipupLevel level = net_level(net);
  std::vector<Shape> all;
  for (const RoutedPath& p : paths)
    for (const Shape& s : expand_path(p, chip_->tech)) all.push_back(s);
  if (RoutingTransaction* txn = RoutingTransaction::current(this))
    txn->note_rip_net(net, paths, ids, all);  // journal keeps copies
  for (const Shape& s : all) grid_->remove(s, level);
  fast_->on_change_all(all);
  std::vector<RoutedPath> out = std::move(paths);
  paths.clear();
  ids.clear();
  return out;
}

void RoutingSpace::remove_recorded(int net, std::size_t path_index) {
  auto& paths = net_paths_[static_cast<std::size_t>(net)];
  auto& ids = net_path_ids_[static_cast<std::size_t>(net)];
  BONN_CHECK(path_index < paths.size());
  const RipupLevel level = net_level(net);
  const auto shapes = expand_path(paths[path_index], chip_->tech);
  if (RoutingTransaction* txn = RoutingTransaction::current(this))
    txn->note_remove_recorded(net, path_index, ids[path_index],
                              paths[path_index], shapes);
  for (const Shape& s : shapes) grid_->remove(s, level);
  fast_->on_change_all(shapes);
  paths.erase(paths.begin() + static_cast<std::ptrdiff_t>(path_index));
  ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(path_index));
}

void RoutingSpace::remove_recorded_by_id(int net, std::uint64_t path_id) {
  const auto idx = recorded_index(net, path_id);
  BONN_CHECK(idx.has_value());
  remove_recorded(net, *idx);
}

std::optional<std::size_t> RoutingSpace::recorded_index(
    int net, std::uint64_t path_id) const {
  const auto& ids = net_path_ids_[static_cast<std::size_t>(net)];
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] == path_id) return i;
  return std::nullopt;
}

RoutingResult RoutingSpace::result() const {
  RoutingResult r(static_cast<int>(net_paths_.size()));
  r.net_paths = net_paths_;
  return r;
}

void RoutingSpace::load_result(const RoutingResult& prior) {
  // Bulk reload, used by the ECO entry point; bypasses the journal and
  // rebuilds the fast grid once, so it must not run inside a transaction.
  BONN_CHECK(RoutingTransaction::current(this) == nullptr);
  BONN_CHECK(prior.net_paths.size() == net_paths_.size());
  for (std::size_t n = 0; n < net_paths_.size(); ++n) {
    const RipupLevel level = net_level(static_cast<int>(n));
    for (const RoutedPath& p : net_paths_[n])
      for (const Shape& s : expand_path(p, chip_->tech))
        grid_->remove(s, level);
    net_paths_[n].clear();
    net_path_ids_[n].clear();
    next_path_id_[n] = 0;
  }
  insert_result(prior);
  fast_->rebuild();
}

void RoutingSpace::insert_result(const RoutingResult& prior) {
  for (std::size_t n = 0; n < prior.net_paths.size(); ++n) {
    const RipupLevel level = net_level(static_cast<int>(n));
    for (const RoutedPath& p : prior.net_paths[n]) {
      BONN_CHECK(p.net == static_cast<int>(n));
      for (const Shape& s : expand_path(p, chip_->tech))
        grid_->insert(s, level);
      net_paths_[n].push_back(p);
      net_path_ids_[n].push_back(next_path_id_[n]++);
    }
  }
}

// ---------------------------------------------------------------------------
// Invariant auditing (correctness harness)

namespace {
/// -1 = follow the BONN_AUDIT environment variable; 0/1 = test override.
std::atomic<int> g_audit_override{-1};
}  // namespace

bool RoutingSpace::audit_enabled() {
  const int o = g_audit_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static const bool env = [] {
    const char* e = std::getenv("BONN_AUDIT");
    return e != nullptr && *e != '\0' && std::string_view(e) != "0";
  }();
  return env;
}

void RoutingSpace::set_audit_for_testing(int on) {
  g_audit_override.store(on, std::memory_order_relaxed);
}

bool RoutingSpace::check_invariants(std::string* why,
                                    const Rect* region) const {
  bool ok = true;
  auto fail = [&](const std::string& msg) {
    ok = false;
    if (why != nullptr) *why += msg + "\n";
  };

  // (a) Recorded paths and stable ids: parallel vectors, strictly
  // increasing ids below the net's next-id counter.
  for (std::size_t n = 0; n < net_paths_.size(); ++n) {
    const auto& paths = net_paths_[n];
    const auto& ids = net_path_ids_[n];
    if (paths.size() != ids.size()) {
      fail("net " + std::to_string(n) + ": " + std::to_string(paths.size()) +
           " paths but " + std::to_string(ids.size()) + " ids");
      continue;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0 && ids[i] <= ids[i - 1])
        fail("net " + std::to_string(n) + ": ids not strictly increasing");
      if (ids[i] >= next_path_id_[n])
        fail("net " + std::to_string(n) + ": id " + std::to_string(ids[i]) +
             " >= next id " + std::to_string(next_path_id_[n]));
    }
  }

  // Every recorded path's shapes must be present in the shape grid: the
  // matching pieces the grid reports inside the shape's rect must cover it.
  // (The fuzzer's shadow model additionally verifies exact multiset
  // equality of *all* occupancy, which needs knowledge of raw insertions
  // this class does not track.)
  const Rect die = grid_->die();
  for (std::size_t n = 0; ok && n < net_paths_.size(); ++n) {
    for (const RoutedPath& p : net_paths_[n]) {
      for (const Shape& s : expand_path(p, chip_->tech)) {
        if (region != nullptr && !s.rect.intersects(region->expanded(200)))
          continue;
        const Rect expect = s.rect.intersection(die);
        if (expect.empty() || expect.area() == 0) continue;
        std::vector<Rect> covered;
        grid_->query(s.global_layer, expect, [&](const GridShape& gs) {
          if (gs.net == s.net && gs.kind == s.kind && gs.cls == s.cls)
            covered.push_back(gs.rect.intersection(expect));
        });
        if (union_area(covered) != expect.area()) {
          fail("net " + std::to_string(n) + ": recorded path shape on layer " +
               std::to_string(s.global_layer) +
               " not fully present in shape grid");
          break;
        }
      }
      if (!ok) break;
    }
  }

  // (b) Canonical interval-map storage everywhere.
  if (!grid_->check_canonical(why)) ok = false;
  if (!fast_->check_canonical(why)) ok = false;

  // (c) Fast-grid words vs the naive oracle.
  std::string fast_why;
  const std::size_t diffs = fastgrid_diff_vs_naive(
      *fast_, chip_->tech, *tg_, *checker_, why != nullptr ? &fast_why : nullptr,
      region);
  if (diffs != 0) {
    fail("fast grid diverges from naive recomputation at " +
         std::to_string(diffs) + " station(s):");
    if (why != nullptr) *why += fast_why;
  }
  return ok;
}

void RoutingSpace::audit(const char* where, const Rect* region) const {
  std::string why;
  if (!check_invariants(&why, region)) {
    throw std::logic_error(std::string("routing-space audit failed at ") +
                           where + ":\n" + why);
  }
}

}  // namespace bonn
