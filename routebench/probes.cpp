#include "routebench/probes.hpp"

#include <algorithm>

#include "src/db/io.hpp"
#include "src/detailed/net_router.hpp"
#include "src/drc/audit.hpp"
#include "src/tech/shapes.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace routebench {

using namespace bonn;

namespace {

// Sample sizes.  Small enough that every probe batch on the benchmark chip
// takes well under a second, large enough for a stable per-call mean.
constexpr std::size_t kSampleNets = 16;
constexpr std::size_t kReplays = 24;
// Search area around a replayed connection's endpoints: both cores get the
// same box, so a detour-free corridor bounds the per-vertex search.
constexpr Coord kReplayMargin = 1500;

/// First `k` elements of a seeded shuffle of `items`.
template <class T>
std::vector<T> sample(std::vector<T> items, std::size_t k, Rng& rng) {
  for (std::size_t i = 0; i < items.size() && i < k; ++i) {
    const std::size_t j = i + rng.below(items.size() - i);
    std::swap(items[i], items[j]);
  }
  if (items.size() > k) items.resize(k);
  return items;
}

double per(double total, double count) {
  return count > 0 ? total / count : 0;
}

}  // namespace

void Checks::expect(const std::string& name, bool ok,
                    const std::string& detail) {
  for (Check& c : list_) {
    if (c.name != name) continue;
    if (c.ok && !ok) c = {name, false, detail};
    return;
  }
  list_.push_back({name, ok, detail});
}

bool Checks::all_ok() const {
  return std::all_of(list_.begin(), list_.end(),
                     [](const Check& c) { return c.ok; });
}

void run_probes(const Chip& chip, const RoutingResult& result,
                const FlowParams& params, std::uint64_t seed,
                const std::string& result_path, SpanRecorder& rec,
                Values& out, Checks& checks) {
  SpanRecorder::Scope probes(rec, "probes");
  Rng rng(seed);

  // db: reading back the workload's own result.
  save_result(result_path, result);
  RoutingResult reread;
  out["db.load_result_s"] =
      rec.record("db.load_result", [&] { reread = load_result(result_path); })
          .seconds();
  checks.expect("db.result_round_trip", reread.net_paths == result.net_paths,
                "load_result(save_result(r)) == r");

  // detailed + fastgrid: the ECO reload, and the fast-grid rebuild inside it.
  RoutingSpace rs(chip);
  out["detailed.space_load_s"] =
      rec.record("detailed.space_load", [&] { rs.load_result(result); })
          .seconds();
  out["fastgrid.rebuild_s"] =
      rec.record("fastgrid.rebuild", [&] { rs.mutable_fast().rebuild(); })
          .seconds();

  // shapegrid: insert, query and capture of every routed shape.
  std::vector<std::vector<Shape>> path_shapes;
  std::vector<Shape> shapes;
  for (const auto& paths : result.net_paths) {
    for (const RoutedPath& p : paths) {
      path_shapes.push_back(expand_path(p, chip.tech));
      shapes.insert(shapes.end(), path_shapes.back().begin(),
                    path_shapes.back().end());
    }
  }
  const auto n_shapes = static_cast<double>(shapes.size());
  ShapeGrid grid(chip.tech, chip.die);
  out["shapegrid.insert_us"] =
      per(rec.record("shapegrid.insert_all",
                     [&] { grid.insert_all(shapes, kStandard); })
                  .seconds() *
              1e6,
          n_shapes);
  std::int64_t found = 0;
  out["shapegrid.query_us"] =
      per(rec.record("shapegrid.query",
                     [&] {
                       for (const Shape& s : shapes) {
                         grid.query(s.global_layer, s.rect,
                                    [&](const GridShape&) { ++found; });
                       }
                     })
                  .seconds() *
              1e6,
          n_shapes);
  out["shapegrid.capture_us"] =
      per(rec.record("shapegrid.capture",
                     [&] {
                       for (const auto& ps : path_shapes) {
                         grid.capture(ps);
                       }
                     })
                  .seconds() *
              1e6,
          n_shapes);
  checks.expect("shapegrid.query_finds_shapes",
                shapes.empty() || found >= std::int64_t(shapes.size()),
                std::to_string(found) + " hits for " +
                    std::to_string(shapes.size()) + " shapes");

  // drc: the distance-rule checker per routed stick, and the full audit.
  std::int64_t sticks = 0;
  const double check_s = rec.record("drc.check", [&] {
    for (const auto& paths : result.net_paths) {
      for (const RoutedPath& p : paths) {
        for (const WireStick& w : p.wires) {
          rs.checker().check_wire(w, p.net, p.wiretype);
        }
        for (const ViaStick& v : p.vias) {
          rs.checker().check_via(v, p.net, p.wiretype);
        }
        sticks += std::int64_t(p.wires.size() + p.vias.size());
      }
    }
  }).seconds();
  out["drc.check_us"] = per(check_s * 1e6, static_cast<double>(sticks));
  out["drc.audit_s"] =
      rec.record("drc.audit", [&] { audit_routing(chip, result); }).seconds();

  // Sampled nets for the per-net and per-path probes.
  std::vector<int> routed_nets;
  for (const Net& n : chip.nets) {
    if (!result.net_paths[std::size_t(n.id)].empty()) {
      routed_nets.push_back(n.id);
    }
  }
  const std::vector<int> nets = sample(routed_nets, kSampleNets, rng);
  std::size_t sampled_paths = 0;
  for (int n : nets) sampled_paths += rs.paths(n).size();

  // fastgrid: the refresh a commit triggers, on each sampled path's shapes.
  {
    std::vector<std::vector<Shape>> refresh;
    for (int n : nets) {
      for (const RoutedPath& p : rs.paths(n)) {
        refresh.push_back(expand_path(p, chip.tech));
      }
    }
    out["fastgrid.refresh_ms"] =
        per(rec.record("fastgrid.on_change_all",
                       [&] {
                         for (const auto& s : refresh) {
                           rs.mutable_fast().on_change_all(s);
                         }
                       })
                    .seconds() *
                1e3,
            static_cast<double>(refresh.size()));
  }

  // detailed: transactional rip + rollback per net, and commit_path per
  // path (timed alone: the rip before it and the rollback after it are not).
  out["detailed.txn_rip_rollback_ms"] =
      per(rec.record("detailed.txn_rip_rollback",
                     [&] {
                       for (int n : nets) {
                         RoutingTransaction txn(rs);
                         rs.rip_net(n);
                         txn.rollback();
                       }
                     })
                  .seconds() *
              1e3,
          static_cast<double>(nets.size()));
  double commit_s = 0;
  rec.record("detailed.commit_path", [&] {
    for (int n : nets) {
      RoutingTransaction txn(rs);
      const std::vector<RoutedPath> ripped = rs.rip_net(n);
      Timer t;
      for (const RoutedPath& p : ripped) rs.commit_path(p);
      commit_s += t.seconds();
      txn.rollback();
    }
  });
  out["detailed.commit_ms"] =
      per(commit_s * 1e3, static_cast<double>(sampled_paths));
  checks.expect("detailed.rollback_restores",
                rs.result().net_paths == result.net_paths,
                "probe rip/commit/rollback left the loaded space intact");

  NetRouter router(rs);
  out["detailed.net_connected_us"] =
      per(rec.record("detailed.net_connected",
                     [&] {
                       for (const Net& n : chip.nets) {
                         router.net_connected(n.id);
                       }
                     })
                  .seconds() *
              1e6,
          static_cast<double>(chip.num_nets()));

  {
    RoutingSpace fresh(chip);
    NetRouter access_router(fresh);
    out["detailed.access_precompute_s"] =
        rec.record("detailed.precompute_access",
                   [&] { access_router.precompute_access(params.detailed); })
            .seconds();
  }

  // Both search cores on a seeded sample of the result's routed
  // connections: the owning net is ripped inside a transaction so its own
  // wiring does not block the replay, and rolled back afterwards.
  std::vector<std::pair<int, std::size_t>> connections;
  for (const Net& n : chip.nets) {
    const auto& paths = result.net_paths[std::size_t(n.id)];
    for (std::size_t k = 0; k < paths.size(); ++k) {
      if (!paths[k].wires.empty()) connections.emplace_back(n.id, k);
    }
  }
  const auto replays = sample(connections, kReplays, rng);
  const OnTrackSearch ontrack(rs);
  const VertexSearch vertex(rs);
  SearchStats on_stats{}, vx_stats{};
  double on_s = 0, vx_s = 0;
  int compared = 0, unrouted = 0, mismatches = 0;
  std::string first_mismatch;
  rec.record("detailed.search_replay", [&] {
    for (const auto& [net, k] : replays) {
      const RoutedPath& p = result.net_paths[std::size_t(net)][k];
      const TrackVertex s =
          rs.tg().nearest_vertex(p.wires.front().layer, p.wires.front().a);
      const TrackVertex t =
          rs.tg().nearest_vertex(p.wires.back().layer, p.wires.back().b);
      if (!s.valid() || !t.valid() || s == t) continue;
      const Point sp = rs.tg().vertex_pt(s);
      const Point tp = rs.tg().vertex_pt(t);
      const std::vector<Rect> area{
          Rect::from_points(sp, tp).expanded(kReplayMargin).intersection(
              chip.die)};
      const FutureCost pi({{Rect::from_points(tp, tp), t.layer}},
                          chip.tech.num_wiring(), 400);
      SearchParams sp_params;
      sp_params.net = net;
      sp_params.wiretype = p.wiretype;
      const SearchSource src{s, 0, 0};

      RoutingTransaction txn(rs);
      rs.rip_net(net);
      Timer t1;
      const auto a = ontrack.run({&src, 1}, {&t, 1}, area, pi, sp_params,
                                 &on_stats);
      on_s += t1.seconds();
      Timer t2;
      const auto b = vertex.run({&src, 1}, {&t, 1}, area, pi, sp_params,
                                &vx_stats);
      vx_s += t2.seconds();
      txn.rollback();

      if (a.has_value() != b.has_value() || (a && a->cost != b->cost)) {
        ++mismatches;
        if (first_mismatch.empty()) {
          first_mismatch =
              "net " + std::to_string(net) + " path " + std::to_string(k) +
              ": on-track " + (a ? std::to_string(a->cost) : "none") +
              ", per-vertex " + (b ? std::to_string(b->cost) : "none");
        }
      } else if (a) {
        ++compared;
      } else {
        ++unrouted;
      }
    }
  });
  out["detailed.ontrack_ns_per_pop"] =
      per(on_s * 1e9, static_cast<double>(on_stats.pops));
  out["detailed.vertex_ns_per_pop"] =
      per(vx_s * 1e9, static_cast<double>(vx_stats.pops));
  checks.expect(
      "detailed.search_cores_equal", mismatches == 0 && compared > 0,
      std::to_string(compared) + " replays with equal costs, " +
          std::to_string(unrouted) + " unroutable in both, " +
          std::to_string(mismatches) + " mismatches" +
          (first_mismatch.empty() ? "" : " (first: " + first_mismatch + ")"));
}

}  // namespace routebench
