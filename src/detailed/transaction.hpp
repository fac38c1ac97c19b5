// Journaled routing-space transactions.
//
// Every RoutingSpace mutation path (commit_path, rip_net, remove_recorded,
// insert/remove shape batches) used to hand-roll its own undo.  A
// RoutingTransaction is the single audited replacement: while one is open
// on the current thread, every mutation of its routing space appends a typed
// undo entry to the journal; rollback() replays the journal in reverse
// (restoring bit-identical shape-grid rows, fast-grid words and recorded
// paths), commit() keeps the mutations.  Destroying an open transaction
// rolls back — restore-on-failure is the default.
//
// Transactions nest: a nested commit splices its journal into the enclosing
// transaction on the same space (so an outer rollback undoes inner committed
// work too); a nested rollback undoes only its own entries.  The §4.4 search
// hold is such a nested transaction: it removes the net's pins and wiring,
// the search runs, and rollback() restores them, leaving no journal entry
// and no dirty region in the enclosing transaction.
//
// Concurrency (§5.1): the active-transaction stack is thread-local.  Under
// the DetailedScheduler's window discipline each worker thread mutates only
// its own window's nets, so per-thread journals are disjoint and rollback
// needs no extra locking beyond the routing space's own sharded locks.
//
// Each transaction also tracks the *dirty region* it touched — per-global-
// layer bounding boxes plus the overall hull — and the set of nets whose
// recorded paths changed.  The scheduler uses the touched nets to avoid
// re-verifying connectivity of untouched nets; the ECO entry point
// (BonnRoute::reroute_nets) uses the geometric region to find collision
// candidates after an incremental reroute.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/shapegrid/shape_grid.hpp"
#include "src/tech/shapes.hpp"
#include "src/tech/stick.hpp"

namespace bonn {

class RoutingSpace;

/// Bounding boxes of everything a transaction mutated: the overall hull and
/// one hull per global layer (wiring and via layers alike).
struct DirtyRegion {
  Rect bbox;                    ///< hull over all layers; empty() if nothing
  std::vector<Rect> per_layer;  ///< indexed by global layer, sized on demand

  bool empty() const { return bbox.empty(); }
  void add(const Rect& r, int global_layer);
  void add(const Shape& s) { add(s.rect, s.global_layer); }
  void merge(const DirtyRegion& o);
  /// Does `r` (expanded by `margin`) touch the dirty area of its layer?
  bool intersects(const Rect& r, int global_layer, Coord margin = 0) const;
};

class RoutingTransaction {
 public:
  /// Opens a transaction on `rs` and pushes it on the calling thread's
  /// active-transaction stack.  Transactions are strictly scoped (LIFO).
  explicit RoutingTransaction(RoutingSpace& rs);
  /// An open transaction rolls back on destruction (restore-on-failure).
  ~RoutingTransaction();
  RoutingTransaction(const RoutingTransaction&) = delete;
  RoutingTransaction& operator=(const RoutingTransaction&) = delete;

  /// Keep the mutations.  If an enclosing transaction on the same space
  /// exists on this thread, the journal (and dirty region, touched nets and
  /// rollback hooks) splices into it, so the outer rollback stays complete.
  void commit();
  /// Undo every journaled mutation in reverse order, then run the
  /// on_rollback hooks (newest first).  Fast-grid refreshes are batched.
  void rollback();

  bool open() const { return state_ == State::kOpen; }
  const DirtyRegion& dirty() const { return dirty_; }
  /// Nets whose recorded-path list changed; may contain duplicates.
  const std::vector<int>& touched_nets() const { return touched_; }
  std::size_t journal_size() const { return journal_.size(); }

  /// Register client-state undo (e.g. NetRouter access bookkeeping) to run
  /// on rollback, after the routing space itself has been restored.
  void on_rollback(std::function<void()> fn);

  /// Innermost open transaction on `rs` for the calling thread, or nullptr.
  static RoutingTransaction* current(const RoutingSpace* rs);

  RoutingSpace& space() const { return *rs_; }

 private:
  friend class RoutingSpace;
  enum class State : std::uint8_t { kOpen, kCommitted, kRolledBack };
  struct Entry {
    enum class Kind : std::uint8_t {
      kInsertShapes,    ///< undo: remove the batch
      kRemoveShapes,    ///< undo: re-insert the batch
      kCommitPath,      ///< undo: pop the net's last recorded path
      kRipNet,          ///< undo: restore the net's whole path list
      kRemoveRecorded,  ///< undo: re-insert one path at its old index
    };
    Kind kind;
    RipupLevel level = 0;  ///< shape batches only
    int net = -1;
    std::size_t index = 0;                ///< kRemoveRecorded
    std::uint64_t path_id = 0;            ///< kCommitPath / kRemoveRecorded
    std::vector<Shape> shapes;            ///< shape batches
    std::vector<RoutedPath> paths;        ///< kRipNet / kRemoveRecorded
    std::vector<std::uint64_t> path_ids;  ///< kRipNet
    /// Before-images of the touched shape-grid row segments.  Rollback
    /// restores these verbatim instead of replaying inverse insert/remove
    /// calls: an image restore is bit-exact by construction and stays so
    /// however the grid's cell bookkeeping evolves.
    std::vector<ShapeGrid::RowImage> images;
  };

  // Journal hooks, called by RoutingSpace mutators *before* the grid
  // mutation is applied (so the entry can capture before-images).
  void note_shapes(bool inserted, std::span<const Shape> shapes,
                   RipupLevel level);
  void note_commit_path(int net, std::uint64_t path_id,
                        std::span<const Shape> shapes);
  void note_rip_net(int net, std::vector<RoutedPath> paths,
                    std::vector<std::uint64_t> ids,
                    std::span<const Shape> shapes);
  void note_remove_recorded(int net, std::size_t index, std::uint64_t path_id,
                            RoutedPath path, std::span<const Shape> shapes);

  void pop_stack();

  RoutingSpace* rs_;
  RoutingTransaction* prev_;  ///< next-outer transaction on this thread
  State state_ = State::kOpen;
  /// True only while the destructor runs its automatic rollback: the
  /// txn_rollback fault point must never fire there (throwing from a
  /// destructor during unwind would terminate the process instead of
  /// exercising a recovery path).
  bool in_destructor_ = false;
  std::vector<Entry> journal_;
  DirtyRegion dirty_;
  std::vector<int> touched_;
  std::vector<std::function<void()>> hooks_;
  obs::TraceSpan span_{"detailed.txn"};
};

}  // namespace bonn
