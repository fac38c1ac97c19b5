// The fast grid (§3.6).
//
// BonnRoute stores continuously updated legality data for a small set of
// frequently used wire types at on-track locations.  For each (wiring layer,
// track) we keep an interval map over station indices whose value is a
// packed 64-bit word: per cached wire type, 3-bit fields for the four shape
// kinds the paper names (wire in preferred direction, jog, via bottom pad,
// via top pad) encoding the minimum rip-up level among blockers (7 = free),
// plus one "gap" bit flagging edges whose usability cannot be deduced from
// their endpoints (off-track shapes strictly between stations) — the
// "zigzag edge" bit of Fig. 4.  Via layers carry cut and inter-layer
// projection fields on the lattice of the lower wiring layer.
//
// 4 fields x 3 bits + 1 gap bit = 13 bits per wire type; four cached wire
// types fit one 64-bit word, matching the paper's packing arithmetic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>

#include "src/drc/checker.hpp"
#include "src/geom/interval_map.hpp"
#include "src/tracks/track_graph.hpp"

namespace bonn {

class FastGrid {
 public:
  static constexpr int kMaxCached = 4;
  enum Field : int { kWireF = 0, kJogF = 1, kViaBotF = 2, kViaTopF = 3 };
  enum ViaField : int { kCutF = 0, kProjF = 1 };
  static constexpr std::uint8_t kFree = 7;

  /// `max_cached` limits the cached wiretypes (§3.6: only the frequently
  /// used ones are worth caching; others fall back to the rule checker).
  FastGrid(const Tech& tech, const TrackGraph& tg, const DrcChecker& checker,
           int max_cached = 2);

  /// Number of wiretypes cached (min(kMaxCached, #wiretypes)).
  int cached_wiretypes() const { return cached_; }
  bool caches(int wiretype) const { return wiretype < cached_; }

  /// Recompute everything from the shape grid (called once after preloading
  /// fixed shapes).
  void rebuild();

  /// Notify that a shape was inserted into / removed from the shape grid;
  /// recomputes the affected neighbourhood.  Call *after* the ShapeGrid
  /// mutation.
  void on_change(const Shape& s);

  /// Batched variant: one recompute per cluster of nearby shapes per layer
  /// instead of one per shape.  This is what makes the §4.4 temporary
  /// removal/reinsertion of whole components affordable.
  void on_change_all(std::span<const Shape> shapes);

  // ---- word encoding --------------------------------------------------
  /// Returns `word` with the 3-bit (wt, f) field replaced by `val`,
  /// saturated at kFree.  Field values live on the 0..7 ripup scale; an
  /// out-of-range input clamps to kFree instead of wrapping — a wrapped
  /// value would silently report *more* legal space than exists.
  static std::uint64_t with_wiring_field(std::uint64_t word, int wt, Field f,
                                         std::uint8_t val);
  static std::uint64_t with_via_field(std::uint64_t word, int wt, ViaField f,
                                      std::uint8_t val);

  // ---- word decoding --------------------------------------------------
  static std::uint8_t wiring_field(std::uint64_t word, int wt, Field f) {
    return static_cast<std::uint8_t>((word >> (wt * 13 + int(f) * 3)) & 0x7);
  }
  static bool gap_bit(std::uint64_t word, int wt) {
    return ((word >> (wt * 13 + 12)) & 0x1) != 0;
  }
  static std::uint8_t via_field(std::uint64_t word, int wt, ViaField f) {
    return static_cast<std::uint8_t>((word >> (wt * 6 + int(f) * 3)) & 0x7);
  }
  /// Is a field value usable under the given ripup permission?  `allowed`
  /// = 0 means "no ripup": only free entries pass.  Otherwise blockers with
  /// ripup level >= allowed may be ripped.
  static bool passes(std::uint8_t field, RipupLevel allowed) {
    return field == kFree || (allowed >= 1 && field >= allowed);
  }

  // ---- queries ---------------------------------------------------------
  /// Packed word at a wiring-layer vertex.
  std::uint64_t word(int layer, int track, int station) const {
    auto lk = read_guard(shard(/*via=*/false, layer, track));
    return wiring_[static_cast<std::size_t>(layer)]
                  [static_cast<std::size_t>(track)]
                      .at(station);
  }
  std::uint64_t via_word(int via_layer, int track, int station) const {
    auto lk = read_guard(shard(/*via=*/true, via_layer, track));
    return via_[static_cast<std::size_t>(via_layer)]
               [static_cast<std::size_t>(track)]
                   .at(station);
  }

  /// Full via legality (bottom pad, top pad, cut, inter-layer projection)
  /// for a via from u.layer to u.layer+1 at vertex u; wiretype must be
  /// cached.  Returns the min blocker level across the four checks.
  std::uint8_t via_level(const TrackVertex& u, int wiretype) const;

  /// Iterate constant-word runs over stations [s_lo, s_hi] of a track:
  /// fn(station_lo, station_hi_exclusive, word).  With concurrency on, the
  /// track's lock shard is held shared across the iteration, so fn must not
  /// call back into the fast grid or the routing space.
  template <typename Fn>
  void for_each_run(int layer, int track, int s_lo, int s_hi, Fn fn) const {
    auto lk = read_guard(shard(/*via=*/false, layer, track));
    wiring_[static_cast<std::size_t>(layer)][static_cast<std::size_t>(track)]
        .for_each(s_lo, s_hi + 1, fn);
  }

  /// Interval-count statistic (Fig. 4): stored breakpoints across tracks.
  std::size_t breakpoint_count() const;

  /// Auditor hook: every per-track interval map must be stored canonically
  /// (coalesced) — see IntervalMap::check_coalesced.  Appends the first
  /// offending track to *why when given.
  bool check_canonical(std::string* why = nullptr) const;

  /// Test-only fault injection for the fuzz harness: deliberately drop
  /// min-field updates for blockers at ripup level >= kStandard, making
  /// occupied stations read as free — the "reports more legal space"
  /// staleness class the historical `& 0x7` field masking produced.  The
  /// fuzzer demo re-introduces the bug, catches the divergence against the
  /// naive oracle, and shrinks it to a replayable script.  Never enable
  /// outside tests; affects every FastGrid in the process.
  static void testing_inject_staleness_bug(bool on);

  // ---- statistics (Fig. 4 hit-rate / speedup bench) --------------------
  void record_hit() const { hits_.fetch_add(1, std::memory_order_relaxed); }
  void record_miss() const { misses_.fetch_add(1, std::memory_order_relaxed); }
  void record_hits(std::uint64_t n) const {
    hits_.fetch_add(n, std::memory_order_relaxed);
  }
  void record_misses(std::uint64_t n) const {
    misses_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Concurrency contract (§5.1): interval maps per (layer, track) span the
  /// whole die, so disjoint routing windows still share track objects.  With
  /// set_concurrent(true), reads (word / via_word / for_each_run) take a
  /// shared lock and recomputes take a unique lock on one of kLockShards
  /// reader-writer locks keyed by (layer, track).  Recomputes may query the
  /// shape grid while holding a shard (fast-grid shard before shape-grid
  /// row); no path acquires them in the reverse order.  Off (default), no
  /// locks are taken.  Toggle only while the grid is otherwise idle.
  void set_concurrent(bool on) { concurrent_ = on; }

 private:
  static constexpr std::size_t kLockShards = 64;

  std::size_t shard(bool via, int layer, int track) const {
    const std::size_t h =
        (static_cast<std::size_t>(layer) * 2u + (via ? 1u : 0u)) * 1315423911u +
        static_cast<std::size_t>(track) * 2654435761u;
    return h % kLockShards;
  }
  std::shared_lock<std::shared_mutex> read_guard(std::size_t sh) const {
    return concurrent_ ? std::shared_lock<std::shared_mutex>(mu_[sh])
                       : std::shared_lock<std::shared_mutex>();
  }
  std::unique_lock<std::shared_mutex> write_guard(std::size_t sh) const {
    return concurrent_ ? std::unique_lock<std::shared_mutex>(mu_[sh])
                       : std::unique_lock<std::shared_mutex>();
  }
  /// Recompute all cached data affected by shapes inside `region` on global
  /// layer `g`.
  void recompute(int g, const Rect& region);
  void recompute_wiring(int w, const Rect& region);
  void recompute_via(int v, const Rect& region);

  /// One cached (wiretype, field) refresh of a layer: which bits it owns,
  /// what it asks the checker, and which stations and tracks it rewrites.
  struct Job;
  /// Set j's station window, forbidden_runs bound and track range for a
  /// refresh of `region` on global layer g, whose stations and tracks lie
  /// on lattice layer w: every station whose checker query window
  /// (DrcChecker::query_window) meets `region`; false when there is none.
  /// `past_edge` extends the bound one station right of the window (wiring
  /// layers' gap bits).
  bool place_job(int w, int g, const Rect& region, bool past_edge,
                 Job& j) const;
  /// Run a layer's jobs track by track: each affected track is read once,
  /// the shape grid is queried once over the hull of the covering jobs'
  /// query windows, every covering job is applied to a word buffer from
  /// that one merged piece list, and the buffer is written back in one
  /// splice.
  void recompute_tracks(bool via, int layer, std::span<const Job> jobs);

  /// Models for a (wiretype, field) on wiring layer w; returns whether the
  /// field exists (e.g. no via bottom pad on the top layer).
  bool field_model(int w, int wt, Field f, WireModel& out,
                   ShapeKind& kind) const;

  const Tech* tech_;
  const TrackGraph* tg_;
  const DrcChecker* checker_;
  int cached_;
  std::uint64_t free_word_wiring_;
  std::uint64_t free_word_via_;
  std::vector<std::vector<IntervalMap<std::uint64_t>>> wiring_;
  std::vector<std::vector<IntervalMap<std::uint64_t>>> via_;
  mutable std::array<std::shared_mutex, kLockShards> mu_;
  bool concurrent_ = false;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bonn
