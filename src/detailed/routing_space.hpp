// RoutingSpace: the owner of all routing-space data structures (§3).
//
// Bundles the track graph (§3.5), shape grid (§3.3), distance rule checker
// (§3.4) and fast grid (§3.6), and keeps them consistent: every path
// insertion/removal updates the shape grid and refreshes the affected fast
// grid neighbourhood.  Also owns the routed paths per net, so rip-up (§4.2)
// is a single call, and the temporary removal of connected components
// during path search (§4.4) is a transaction that rolls back.
//
// All mutators are transaction-aware: while a RoutingTransaction
// (transaction.hpp) is open on the calling thread for this space, every
// mutation is journaled and can be rolled back bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/db/chip.hpp"
#include "src/drc/checker.hpp"
#include "src/fastgrid/fast_grid.hpp"
#include "src/shapegrid/shape_grid.hpp"
#include "src/tracks/track_graph.hpp"

namespace bonn {

class RoutingTransaction;

// Concurrency contract (§5.1).  By default the routing space is single-
// threaded, exactly as before.  set_concurrent(true) arms the internal
// sharded reader-writer locks of the shape grid, the config table, and the
// fast grid, after which threads confined to *disjoint routing windows* may
// concurrently call commit_path / rip_net / remove_recorded /
// insert_shape / remove_shape, open and close their own transactions (the
// §4.4 search hold is one), and use all read paths.  The locks provide
// memory safety only; logical isolation (no thread observes or rips
// another window's in-flight work) is the DetailedScheduler's job: it
// assigns each net to a window only when the net's whole reach — search
// area, pin-access windows, fast-grid refresh neighbourhood, DRC
// interaction distance — fits inside it, serializes everything else, and
// enforces the single-owner rule for net_paths_[net] (a net is owned by
// exactly one window or by the serial phase, so its paths vector is never
// touched from two threads).
class RoutingSpace {
 public:
  explicit RoutingSpace(const Chip& chip);
  /// The space of `chip` with `prior`'s wiring already recorded (ECO and
  /// resume entry): the same state as RoutingSpace(chip) followed by
  /// load_result(prior), built with one fast-grid rebuild instead of two.
  RoutingSpace(const Chip& chip, const RoutingResult& prior);

  /// Arm/disarm the internal locks (shape grid rows, config table,
  /// fast-grid tracks).  Toggle only while no other thread uses the space.
  void set_concurrent(bool on) {
    grid_->set_concurrent(on);
    fast_->set_concurrent(on);
  }

  const Chip& chip() const { return *chip_; }
  const TrackGraph& tg() const { return *tg_; }
  const ShapeGrid& grid() const { return *grid_; }
  const DrcChecker& checker() const { return *checker_; }
  const FastGrid& fast() const { return *fast_; }
  FastGrid& mutable_fast() { return *fast_; }

  /// Ripup level for a net's wiring (critical nets are harder to rip).
  RipupLevel net_level(int net) const;

  /// Insert a routed path (updates shape grid + fast grid) and record it
  /// under a fresh stable path id.  Returns the id.
  std::uint64_t commit_path(const RoutedPath& path);
  /// Remove all paths of a net (rip-up); returns them for possible restore.
  std::vector<RoutedPath> rip_net(int net);
  /// Remove one recorded path of a net by its *current* position in
  /// paths(net).  Removal shifts the indices of all later paths — prefer
  /// remove_recorded_by_id when holding on to handles across mutations.
  void remove_recorded(int net, std::size_t path_index);
  /// Remove one recorded path by its stable id (ids never shift).
  void remove_recorded_by_id(int net, std::uint64_t path_id);

  const std::vector<RoutedPath>& paths(int net) const {
    return net_paths_[static_cast<std::size_t>(net)];
  }
  /// Stable ids parallel to paths(net): ids are assigned per net in
  /// monotonically increasing order and are never reused, so they stay
  /// valid across removals of other paths.  Deterministic under the
  /// single-owner rule (one thread mutates a given net at a time).
  const std::vector<std::uint64_t>& path_ids(int net) const {
    return net_path_ids_[static_cast<std::size_t>(net)];
  }
  /// Current position of a path id in paths(net), if still recorded.
  std::optional<std::size_t> recorded_index(int net,
                                            std::uint64_t path_id) const;

  RoutingResult result() const;
  /// Replace all recorded wiring with `prior` (ECO entry: resume from a
  /// saved RoutingResult).  Bulk operation — must not run inside an open
  /// transaction; path ids restart from 0.
  void load_result(const RoutingResult& prior);

  // ---- invariant auditing (correctness harness) -----------------------
  /// Cross-structure consistency audit: (a) recorded paths / stable ids are
  /// structurally sound and every recorded path's shapes are present in the
  /// shape grid, (b) shape-grid rows and fast-grid tracks are stored
  /// canonically, (c) fast-grid words match a naive per-track recomputation
  /// from the shape grid (src/fastgrid/oracle.hpp).  With `region` given,
  /// the geometric checks restrict to paths/tracks near it — this is what
  /// transaction boundaries use (dirty-region bounded).  Returns true when
  /// consistent; appends a description of the first divergences to *why.
  bool check_invariants(std::string* why = nullptr,
                        const Rect* region = nullptr) const;

  /// Auditing at transaction boundaries is armed by the BONN_AUDIT
  /// environment variable (any value but "0"), or programmatically for
  /// tests.  When armed, RoutingTransaction::commit() and rollback() call
  /// audit() on their dirty region.
  static bool audit_enabled();
  /// Override the env: 1 = on, 0 = off, -1 = back to the environment.
  static void set_audit_for_testing(int on);
  /// Runs check_invariants and throws std::logic_error with the divergence
  /// description on failure; `where` names the call site in the message.
  void audit(const char* where, const Rect* region = nullptr) const;

  /// Raw shape-level mutation (kept consistent with the fast grid).
  void insert_shape(const Shape& s, RipupLevel level);
  void remove_shape(const Shape& s, RipupLevel level);
  /// Batch variants: one journal entry, one fast-grid refresh; an empty
  /// list journals nothing.
  void insert_shapes(std::span<const Shape> shapes, RipupLevel level);
  void remove_shapes(std::span<const Shape> shapes, RipupLevel level);

 private:
  friend class RoutingTransaction;

  /// Record `prior`'s paths (ids from each net's counter) and insert their
  /// shapes into the shape grid; the caller rebuilds the fast grid.
  void insert_result(const RoutingResult& prior);

  const Chip* chip_;
  std::unique_ptr<TrackGraph> tg_;
  std::unique_ptr<ShapeGrid> grid_;
  std::unique_ptr<DrcChecker> checker_;
  std::unique_ptr<FastGrid> fast_;
  std::vector<std::vector<RoutedPath>> net_paths_;
  // Stable id per recorded path, parallel to net_paths_, plus the per-net
  // next-id counter (per-net so id assignment is deterministic under
  // window-parallel routing).
  std::vector<std::vector<std::uint64_t>> net_path_ids_;
  std::vector<std::uint64_t> next_path_id_;
};

}  // namespace bonn
