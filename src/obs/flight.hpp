// Per-net flight recorder: one structured record per routing attempt.
//
// A failed or scenic net is explainable after the fact only if the router
// remembers what it tried: which window and flow phase the attempt ran in,
// how much search effort it burned (Dijkstra pops, heap pushes), whether it
// ripped victims, descended the retry ladder, rolled its transaction back,
// or was stopped by the budget.  The recorder keeps those records in
// per-thread *ring* buffers — a bounded window over the most recent
// attempts, never unbounded memory — and merges them on demand for the run
// report, the `--explain-net` diagnostic, and a standalone Chrome trace.
//
// Cost model (see DESIGN.md §4f): disabled, one relaxed load per attempt —
// routing a net costs thousands of heap operations, so the recorder is
// unmeasurable in a flow.  Enabled, one ~100-byte struct copy into a
// pre-registered thread-local ring per attempt, no locks on the hot path.
//
// Enable with ObsParams::flight or the BONN_FLIGHT environment variable.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/json.hpp"

namespace bonn::obs {

/// One routing attempt.  `phase` and `mode` are string literals (the
/// recorder stores the pointers); `mode` distinguishes the on-track interval
/// search from the gridless vertex fallback — the slot where a future
/// pattern-vs-fallback split (ROADMAP item 3) lands.
struct FlightRecord {
  int net = -1;
  int window = -1;    ///< scheduler window index; -1 = serial / cross-window
  const char* phase = "";  ///< flow phase ("preroute", "detailed", "eco", ...)
  const char* mode = "";   ///< "ontrack" or "vertex"
  std::int64_t pops = 0;   ///< Dijkstra pops spent by this attempt
  std::int64_t pushes = 0;  ///< heap pushes spent by this attempt
  int ripups = 0;          ///< victims ripped by this attempt
  int rollbacks = 0;       ///< transactions rolled back (attempt + victims)
  int ladder_rungs = 0;    ///< retry-ladder rungs descended
  bool rip_first = false;  ///< ECO/cleanup-style rip-then-reroute attempt
  bool budget_stopped = false;  ///< flow budget had tripped by attempt end
  bool watchdog_stopped = false;  ///< hung-net watchdog ceiling expired
  /// Quarantine cause when this attempt tripped it ("fault", "watchdog",
  /// "ladder"); "" otherwise.  String literal, same storage rule as phase.
  const char* quarantine = "";
  char outcome = '?';      ///< 'R' routed, 'F' failed, 'E' recovered error
  std::uint32_t tid = 0;   ///< recorder thread id (registration order)
  std::uint64_t start_us = 0;  ///< steady clock, µs since process start
  std::uint64_t dur_us = 0;
};

/// Process-wide recorder.  All methods are safe to call from any thread;
/// record() is wait-free once the calling thread's ring is registered.
class Flight {
 public:
  /// Runtime switch (default: off, unless BONN_FLIGHT is set to an on
  /// value, see obs::parse_flag).
  static bool enabled() noexcept {
    return g_enabled.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept;

  /// Append to the calling thread's ring (overwriting the oldest record
  /// once full); no-op when disabled.  `rec.tid` is filled in here.
  static void record(const FlightRecord& rec) noexcept;

  /// Clear every ring (a flow start: the records describe exactly one run).
  static void reset();

  /// All records, merged across threads and sorted by start time.
  static std::vector<FlightRecord> snapshot();
  /// The records of one net, in attempt order.
  static std::vector<FlightRecord> for_net(int net);

  /// Records displaced by ring wrap-around since the last reset
  /// (diagnostic: nonzero means the window no longer covers the whole run).
  static std::uint64_t overwritten() noexcept;

  /// All records as a JSON array (the run report's "flight" key).
  static Json to_json();
  /// Per-net diagnostic: the net's attempts plus a summary (attempt count,
  /// outcome tally, total search effort) — the payload of --explain-net.
  static Json explain(int net);
  /// Standalone Chrome trace-event file: one "X" event per attempt with the
  /// full record in args, thread-name metadata included.
  static bool write_chrome_trace(const std::string& path);

 private:
  static std::atomic<bool> g_enabled;
};

/// Current flow phase, shared between flight records and trace spans.  Set
/// by the flows at phase boundaries; `phase` must be a string literal.
void set_phase(const char* phase) noexcept;
const char* current_phase() noexcept;

}  // namespace bonn::obs
