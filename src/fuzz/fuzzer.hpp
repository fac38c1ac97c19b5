// Differential fuzzing of the routing-space stack (correctness harness).
//
// The fuzzer generates a seeded, fully deterministic sequence of public
// mutation-API operations — commit_path / rip_net / remove_recorded_by_id,
// raw shape insert/remove, §4.4 search holds, nested RoutingTransaction
// commit/rollback, and ECO reroutes — and drives them against a small
// synthetic chip.  After every step it cross-checks the real data structures
// against independent models:
//
//   * shape-grid occupancy vs a brute-force shadow multiset of shapes,
//     decomposed into cell-clipped pieces with the exact cell_span rules;
//   * fast-grid legality words vs the naive per-track recomputation oracle
//     (src/fastgrid/oracle.hpp), region-limited per step and full-die
//     periodically;
//   * canonical (coalesced) interval-map storage everywhere;
//   * recorded-path / stable-id bookkeeping via
//     RoutingSpace::check_invariants;
//   * DRC neutrality of transaction rollback (audit_routing before a
//     transaction opens == after it rolls back).
//
// A failing sequence is shrunk by chunk removal to a minimal reproducer and
// written as a human-readable replayable script; `bonn_fuzz --replay file`
// (or replay_script) re-runs it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bonn::fuzz {

/// One fuzz operation.  The raw parameters a..d are interpreted
/// *self-healingly* against the current space state (indices taken modulo
/// live object counts, unsatisfiable ops become no-ops), so every
/// subsequence of a valid sequence is itself valid — which is what makes
/// chunk-removal shrinking sound.
struct FuzzOp {
  enum class Kind : std::uint8_t {
    kCommitPath,     ///< commit a random stick path for net a%N
    kRipNet,         ///< rip_net(a%N)
    kRemoveRecorded, ///< remove_recorded_by_id of a random recorded path
    kInsertShape,    ///< raw insert_shape of a random rectangle
    kRemoveShape,    ///< remove_shape of a previously raw-inserted rectangle
    kHold,           ///< §4.4 hold of net a%N: nested transaction removes
                     ///< its pins and wiring, fast grid vs oracle, rollback
    kTxnBegin,       ///< open a nested RoutingTransaction
    kTxnCommit,      ///< commit the innermost transaction
    kTxnRollback,    ///< roll back the innermost transaction
    kEcoReroute,     ///< reroute_nets + load_result (outside transactions)
  };
  Kind kind = Kind::kCommitPath;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;

  friend bool operator==(const FuzzOp&, const FuzzOp&) = default;
};

struct FuzzParams {
  std::uint64_t seed = 1;
  int steps = 200;        ///< operations per episode
  int check_every = 1;    ///< cross-check cadence (1 = after every op)
  int full_check_every = 48;  ///< full-die fast-grid oracle cadence (checks)
  bool with_eco = true;   ///< include kEcoReroute ops (slowest op by far)
  bool drc_checks = true; ///< DRC-neutrality audits around rollbacks
  int layers = 4;         ///< wiring layers of the fuzz chip
  int shrink_budget = 250;  ///< max replays spent minimizing a failure
  /// Directory for failure scripts; "" = current directory.
  std::string artifact_dir;
};

/// A minimized failing sequence plus where/why it failed.
struct FuzzFailure {
  std::vector<FuzzOp> ops;   ///< shrunk sequence (failure at the last op)
  std::size_t failing_step = 0;
  std::string message;
  std::string script_path;   ///< replay script on disk ("" if unwritable)
};

struct FuzzResult {
  std::int64_t ops_executed = 0;  ///< ops run in the main pass (not shrink)
  std::int64_t checks = 0;        ///< cross-check passes performed
  std::optional<FuzzFailure> failure;

  bool ok() const { return !failure.has_value(); }
};

/// Run one fuzz episode: generate params.steps ops from params.seed, execute
/// with cross-checks, and on divergence shrink + write a replay script.
FuzzResult run_fuzz(const FuzzParams& params);

/// Serialize a failing sequence as a replay script (see parse_script).
std::string format_script(const FuzzParams& params,
                          const std::vector<FuzzOp>& ops);

/// Parse a replay script produced by format_script.  Returns false (and
/// fills *err) on malformed input.
bool parse_script(const std::string& text, FuzzParams* params,
                  std::vector<FuzzOp>* ops, std::string* err = nullptr);

/// Re-run a previously written script (no shrinking; the script's own ops
/// are executed verbatim with full checking).
FuzzResult replay_script(const std::string& text, std::string* err = nullptr);

}  // namespace bonn::fuzz
