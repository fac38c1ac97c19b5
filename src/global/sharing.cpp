#include "src/global/sharing.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>

#include "src/obs/trace.hpp"
#include "src/util/assert.hpp"
#include "src/util/budget.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace bonn {

FractionalSolution ResourceSharing::run(
    const std::vector<std::vector<int>>& terminals,
    const SharingParams& params, SharingStats* stats) const {
  Timer timer;
  const int R = model_->num_resources();
  const std::size_t N = terminals.size();

  FractionalSolution frac;
  frac.per_net.resize(N);
  std::vector<double> y(static_cast<std::size_t>(R), 1.0);

  // Last-used solution per net for the reuse speed-up.
  std::vector<int> last_idx(N, -1);
  std::vector<double> last_price(N, 0.0);
  std::vector<double> last_scale(N, 1.0);
  std::atomic<std::uint64_t> reuses{0};
  // Global inflation gauge: every solution pays the wirelength resource, so
  // its price is the natural deflator for the reuse test (prices grow by
  // ~e^{ελ} per phase for *all* nets; only relative drift matters).
  const std::size_t wl_res = static_cast<std::size_t>(model_->wl_resource());

  std::unique_ptr<ThreadPool> pool;
  if (params.threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(params.threads));
  }
  std::vector<SteinerOracle::Workspace> ws(
      static_cast<std::size_t>(std::max(params.threads, 1)));

  // Chunked block solves (§5.1 with reproducibility): within a chunk,
  // every net's reuse test and oracle solve sees the frozen chunk-start
  // prices y0 — a pure per-net map that parallelizes freely — and the price
  // updates are folded sequentially in net order afterwards.  The chunk
  // size depends only on N, so any thread count (including 1) produces the
  // same fractional solution bit for bit.
  struct Candidate {
    bool skip = true;
    bool reused = false;
    SteinerSolution sol;   ///< fresh solve (when !reused)
    double price = 0;      ///< cost of the fresh solve under y0
    double scale = 1.0;    ///< y0[wl_res] at solve time
  };
  std::mutex ws_mu;
  std::vector<SteinerOracle::Workspace*> free_ws;
  for (auto& w : ws) free_ws.push_back(&w);
  auto run_chunk = [&](std::size_t lo, std::size_t hi, int phase) {
    const std::vector<double> y0 = y;
    std::vector<Candidate> cand(hi - lo);
    auto eval = [&](std::size_t i) {
      const std::size_t n = lo + i;
      if (terminals[n].size() < 2) return;
      Candidate& c = cand[i];
      c.skip = false;
      if (params.oracle_reuse && phase > 0 && last_idx[n] >= 0) {
        const double cur = oracle_->price(
            frac.per_net[n][static_cast<std::size_t>(last_idx[n])].first,
            static_cast<int>(n), y0);
        const double inflation = y0[wl_res] / last_scale[n];
        if (cur <= params.reuse_slack * last_price[n] * inflation) {
          c.reused = true;
          ++reuses;
          return;
        }
      }
      SteinerOracle::Workspace* w;
      {
        std::lock_guard<std::mutex> lk(ws_mu);
        w = free_ws.back();
        free_ws.pop_back();
      }
      c.sol = oracle_->solve(terminals[n], static_cast<int>(n), y0, *w);
      c.price = c.sol.cost;
      c.scale = y0[wl_res];
      {
        std::lock_guard<std::mutex> lk(ws_mu);
        free_ws.push_back(w);
      }
    };
    if (pool) {
      pool->parallel_for(hi - lo, eval, /*grain=*/4);
    } else {
      for (std::size_t i = 0; i < hi - lo; ++i) eval(i);
    }
    // Sequential fold in net order: dedup, weights, price updates.
    for (std::size_t i = 0; i < hi - lo; ++i) {
      Candidate& c = cand[i];
      if (c.skip) continue;
      const std::size_t n = lo + i;
      auto& sols = frac.per_net[n];
      int chosen;
      if (c.reused) {
        chosen = last_idx[n];
      } else {
        last_price[n] = c.price;
        last_scale[n] = c.scale;
        chosen = -1;
        for (std::size_t s = 0; s < sols.size(); ++s) {
          if (sols[s].first == c.sol) {
            chosen = static_cast<int>(s);
            break;
          }
        }
        if (chosen < 0) {
          sols.push_back({std::move(c.sol), 0.0});
          chosen = static_cast<int>(sols.size()) - 1;
        }
      }
      last_idx[n] = chosen;
      auto& [sol, weight] = sols[static_cast<std::size_t>(chosen)];
      weight += 1.0;
      for (const auto& [e, s] : sol.edges) {
        model_->for_each_usage(static_cast<int>(n), e, s,
                               [&](int r, double g) {
                                 y[static_cast<std::size_t>(r)] *=
                                     std::exp(params.epsilon * g);
                               });
      }
    }
  };
  const std::size_t chunk =
      std::clamp<std::size_t>(N / 8, 16, 256);  // function of N only

  BONN_TRACE_SPAN("global.sharing");
  int phases_done = 0;
  bool stopped_early = false;
  for (int phase = 0; phase < params.phases && !stopped_early; ++phase) {
    BONN_TRACE_SPAN("global.sharing.phase");
    for (std::size_t lo = 0; lo < N; lo += chunk) {
      run_chunk(lo, std::min(N, lo + chunk), phase);
      // Budget check at the chunk boundary: the chunk just folded stays —
      // every stop point is a deterministic prefix of the chunk sequence.
      if (params.budget != nullptr && params.budget->stopped()) {
        stopped_early = true;
        break;
      }
    }
    if (!stopped_early) ++phases_done;
    if (params.budget != nullptr && params.budget->stopped()) {
      stopped_early = true;
    }
    // λ trajectory (Fig. 1-style convergence evidence): with y_r = e^{ε·Σg},
    // the usage of r averaged over the phases so far is ln(y_r)/(ε·phases),
    // so the max over resources is exactly λ of the running average.
    if (obs::Trace::active()) {
      double max_y = 1.0;
      for (const double yr : y) max_y = std::max(max_y, yr);
      const double lambda_est =
          std::log(max_y) / (params.epsilon * (phase + 1));
      obs::Trace::counter_event("global.lambda", lambda_est);
    }
  }

  // Normalize weights to a convex combination.
  for (auto& sols : frac.per_net) {
    double total = 0;
    for (auto& [sol, wgt] : sols) total += wgt;
    if (total > 0) {
      for (auto& [sol, wgt] : sols) wgt /= total;
    }
  }
  frac.final_prices = y;

  if (stats) {
    stats->seconds = timer.seconds();
    stats->oracle_calls = oracle_->calls();
    stats->reuses = reuses;
    stats->phases_done = phases_done;
    stats->stopped_early = stopped_early;
    // λ of the fractional solution: max over resources of total usage.
    std::vector<double> usage(static_cast<std::size_t>(R), 0.0);
    for (std::size_t n = 0; n < N; ++n) {
      for (const auto& [sol, wgt] : frac.per_net[n]) {
        for (const auto& [e, s] : sol.edges) {
          model_->for_each_usage(static_cast<int>(n), e, s,
                                 [&](int r, double g) {
                                   usage[static_cast<std::size_t>(r)] += wgt * g;
                                 });
        }
      }
    }
    stats->lambda = usage.empty()
                        ? 0.0
                        : *std::max_element(usage.begin(), usage.end());
  }
  return frac;
}

}  // namespace bonn
