// Algorithm 2: the min-max resource sharing algorithm (§2.3).
//
// The fastest known FPTAS for min-max resource sharing [Müller, Radke,
// Vygen 2011]: t phases; in each phase every net gets a solution from the
// block oracle under current prices, prices rise multiplicatively with
// consumption (y_r *= e^{ε g}), and the final fractional solution is the
// average over phases.  Includes the practical speed-ups the paper names:
// oracle reuse when the previous solution is still cheap under current
// prices, and parallel block solves (§5.1) in a deterministic chunked form.
#pragma once

#include <cstdint>

#include "src/global/steiner.hpp"

namespace bonn {

class Budget;

struct SharingParams {
  int phases = 8;          ///< t (paper default 125; scaled-down instances
                           ///< converge much earlier, see bench_ablations)
  double epsilon = 1.0;    ///< ε (paper: 1 works well)
  bool oracle_reuse = true;
  double reuse_slack = 1.25;  ///< reuse while current price <= slack * old
  /// Worker threads for the block solves.  Nets are processed in chunks of
  /// a size that depends only on the net count; within a chunk every reuse
  /// test and oracle solve sees the chunk-start prices (a pure map,
  /// parallelized over the pool) and the price updates are folded
  /// sequentially in net order.  Results are bit-identical at any thread
  /// count, including 1.
  int threads = 1;
  /// Optional execution budget, polled at chunk boundaries: on a trip the
  /// solver finishes the current chunk, stops, and returns whatever convex
  /// combinations it has — the rounding stage copes with nets that never
  /// received a solution.
  const Budget* budget = nullptr;
};

struct SharingStats {
  double seconds = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t reuses = 0;
  double lambda = 0;  ///< max_r Σ_n g_n^r of the fractional solution
  int phases_done = 0;        ///< full phases completed
  bool stopped_early = false; ///< budget tripped before params.phases ran
};

/// Convex combination per net: distinct solutions with weights summing to 1.
struct FractionalSolution {
  std::vector<std::vector<std::pair<SteinerSolution, double>>> per_net;
  std::vector<double> final_prices;  ///< y at termination
};

class ResourceSharing {
 public:
  ResourceSharing(const ResourceModel& model, const SteinerOracle& oracle)
      : model_(&model), oracle_(&oracle) {}

  /// `terminals[n]`: deduplicated global-graph vertex ids of net n; nets
  /// with fewer than two vertices are skipped (already locally connected).
  FractionalSolution run(const std::vector<std::vector<int>>& terminals,
                         const SharingParams& params,
                         SharingStats* stats = nullptr) const;

 private:
  const ResourceModel* model_;
  const SteinerOracle* oracle_;
};

}  // namespace bonn
