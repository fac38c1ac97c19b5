#include "src/fastgrid/fast_grid.hpp"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/util/assert.hpp"

namespace bonn {

namespace {

constexpr std::uint64_t kFieldMask = 0x7;

// Test-only fault switch, see FastGrid::testing_inject_staleness_bug.
std::atomic<bool> g_inject_staleness{false};

}  // namespace

std::uint64_t FastGrid::with_wiring_field(std::uint64_t word, int wt, Field f,
                                          std::uint8_t val) {
  const int off = wt * 13 + int(f) * 3;
  const auto v = static_cast<std::uint64_t>(std::min(val, kFree));
  return (word & ~(kFieldMask << off)) | (v << off);
}

std::uint64_t FastGrid::with_via_field(std::uint64_t word, int wt, ViaField f,
                                       std::uint8_t val) {
  const int off = wt * 6 + int(f) * 3;
  const auto v = static_cast<std::uint64_t>(std::min(val, kFree));
  return (word & ~(kFieldMask << off)) | (v << off);
}

void FastGrid::testing_inject_staleness_bug(bool on) {
  g_inject_staleness.store(on, std::memory_order_relaxed);
}

FastGrid::FastGrid(const Tech& tech, const TrackGraph& tg,
                   const DrcChecker& checker, int max_cached)
    : tech_(&tech), tg_(&tg), checker_(&checker) {
  cached_ = std::min({kMaxCached, max_cached,
                      static_cast<int>(tech.wiretypes.size())});
  free_word_wiring_ = 0;
  free_word_via_ = 0;
  for (int k = 0; k < cached_; ++k) {
    for (int f = 0; f < 4; ++f)
      free_word_wiring_ = with_wiring_field(free_word_wiring_, k, Field(f), kFree);
    for (int f = 0; f < 2; ++f)
      free_word_via_ = with_via_field(free_word_via_, k, ViaField(f), kFree);
  }
  const int L = tg.num_layers();
  wiring_.resize(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    wiring_[static_cast<std::size_t>(l)].assign(
        tg.tracks(l).size(), IntervalMap<std::uint64_t>(free_word_wiring_));
  }
  via_.resize(static_cast<std::size_t>(tech.num_vias()));
  for (int v = 0; v < tech.num_vias(); ++v) {
    via_[static_cast<std::size_t>(v)].assign(
        tg.tracks(v).size(), IntervalMap<std::uint64_t>(free_word_via_));
  }
}

bool FastGrid::field_model(int w, int wt, Field f, WireModel& out,
                           ShapeKind& kind) const {
  const WireType& t = tech_->wt(wt);
  switch (f) {
    case kWireF:
      out = t.pref[static_cast<std::size_t>(w)];
      kind = ShapeKind::kWire;
      return true;
    case kJogF:
      out = t.nonpref[static_cast<std::size_t>(w)];
      kind = ShapeKind::kJog;
      return true;
    case kViaBotF:
      if (w >= tech_->num_vias()) return false;
      out = t.vias[static_cast<std::size_t>(w)].bottom;
      kind = ShapeKind::kViaPad;
      return true;
    case kViaTopF:
      if (w == 0) return false;
      out = t.vias[static_cast<std::size_t>(w) - 1].top;
      kind = ShapeKind::kViaPad;
      return true;
  }
  return false;
}

struct FastGrid::Job {
  int off = 0;            ///< bit offset of the job's 3-bit field in the word
  std::uint64_t gap = 0;  ///< the gap bit the job owns (wire field only)
  bool swept = false;     ///< the checker models a swept wire (wire field)
  WireModel model;
  ShapeKind kind = ShapeKind::kWire;
  Interval qbound;  ///< forbidden_runs bound along each track
  int slo = 0, shi = -1;  ///< station window the job resets and reapplies
  int tlo = 0, thi = -1;  ///< tracks the job covers
};

bool FastGrid::place_job(int w, int g, const Rect& region, bool past_edge,
                         Job& j) const {
  const bool horiz = tech_->pref(w) == Dir::kHorizontal;
  const Interval reg_along = horiz ? region.x_iv() : region.y_iv();
  const Interval reg_cross = horiz ? region.y_iv() : region.x_iv();
  const auto& stations = tg_->stations(w);
  const int num_st = static_cast<int>(stations.size());
  // A change in `region` reaches the stations and tracks whose query window
  // meets it.  The window of a reference point at the origin, mirrored,
  // gives that reach, so it covers whatever the checker widens the window
  // by.
  const Rect origin = checker_->query_window(g, j.model, horiz, /*cross=*/0,
                                             /*bound=*/{0, 0}, j.swept);
  const Interval o_along = horiz ? origin.x_iv() : origin.y_iv();
  const Interval o_cross = horiz ? origin.y_iv() : origin.x_iv();
  const Coord reach_cross = std::max(-o_cross.lo, o_cross.hi);
  const Coord reach_along = std::max(-o_along.lo, o_along.hi);
  Interval bound = reg_along.expanded(reach_along);
  auto [slo, shi] = tg_->station_range(w, bound);
  // The range may be empty (shi < slo) when the reach window lies strictly
  // between two stations or beyond the track ends; shapes there still
  // decide the gap bits of the surrounding edges, so widen first and only
  // then test — bailing out on the unwidened range left those gap bits
  // stale.  Widening by two stations also recomputes boundary bits exactly
  // like a full rebuild (incremental == rebuild).
  slo = std::max(slo - 2, 0);
  shi = std::min(shi + 2, num_st - 1);
  if (slo > shi) return false;
  bound = bound.hull({stations[static_cast<std::size_t>(slo)],
                      stations[static_cast<std::size_t>(shi)]});
  if (past_edge) {
    // Classify runs one station past the window's right edge too: a run
    // strictly between stations shi and shi+1 owns the gap bit *at* shi,
    // which the reset clears.
    const int edge_hi = std::min(shi + 1, num_st - 1);
    bound = bound.hull({stations[static_cast<std::size_t>(edge_hi)],
                        stations[static_cast<std::size_t>(edge_hi)]});
  }
  j.qbound = bound;
  j.slo = slo;
  j.shi = shi;
  std::tie(j.tlo, j.thi) =
      tg_->track_range(w, reg_cross.expanded(reach_cross));
  return true;
}

void FastGrid::recompute_wiring(int w, const Rect& region) {
  if (tg_->tracks(w).empty() || tg_->stations(w).empty()) return;
  std::vector<Job> jobs;
  for (int k = 0; k < cached_; ++k) {
    for (int f = 0; f < 4; ++f) {
      Job j;
      if (!field_model(w, k, Field(f), j.model, j.kind)) continue;
      j.off = k * 13 + f * 3;
      j.swept = f == kWireF;
      if (j.swept) j.gap = std::uint64_t(1) << (k * 13 + 12);
      if (place_job(w, global_of_wiring(w), region, /*past_edge=*/true, j))
        jobs.push_back(j);
    }
  }
  recompute_tracks(/*via=*/false, w, jobs);
}

void FastGrid::recompute_via(int v, const Rect& region) {
  const int w = v;  // lattice of the lower wiring layer
  if (tg_->tracks(w).empty()) return;
  std::vector<Job> jobs;
  for (int k = 0; k < cached_; ++k) {
    for (int f = 0; f < 2; ++f) {
      Job j;
      if (f == kCutF) {
        j.model = tech_->wt(k).vias[static_cast<std::size_t>(v)].cut;
        j.kind = ShapeKind::kViaCut;
      } else {
        if (v == 0) continue;
        const ViaModel& below = tech_->wt(k).vias[static_cast<std::size_t>(v) - 1];
        if (!below.has_projection) continue;
        j.model = below.projection;
        j.kind = ShapeKind::kViaProj;
      }
      j.off = k * 6 + f * 3;
      if (place_job(w, global_of_via(v), region, /*past_edge=*/false, j))
        jobs.push_back(j);
    }
  }
  recompute_tracks(/*via=*/true, v, jobs);
}

void FastGrid::recompute_tracks(bool via, int layer,
                                std::span<const Job> jobs) {
  if (jobs.empty()) return;
  const int w = layer;  // a via layer lives on its lower wiring layer's lattice
  const int g = via ? global_of_via(layer) : global_of_wiring(layer);
  const bool horiz = tech_->pref(w) == Dir::kHorizontal;
  const auto& tracks = tg_->tracks(w);
  const int num_st = static_cast<int>(tg_->stations(w).size());
  auto& maps = (via ? via_ : wiring_)[static_cast<std::size_t>(layer)];
  const bool stale = g_inject_staleness.load(std::memory_order_relaxed);
  int tlo = jobs.front().tlo, thi = jobs.front().thi;
  for (const Job& j : jobs) {
    tlo = std::min(tlo, j.tlo);
    thi = std::max(thi, j.thi);
  }
  std::vector<std::uint64_t> buf;
  std::vector<GridShape> pieces;
  std::vector<ForbiddenRun> runs;
  for (int ti = tlo; ti <= thi; ++ti) {
    const Coord cross = tracks[static_cast<std::size_t>(ti)];
    // The track's window: the hull of its covering jobs' station windows,
    // and the hull of their query windows, which one shape-grid query
    // serves for every job.
    int lo = num_st, hi = -1;
    Rect window;
    for (const Job& j : jobs) {
      if (ti < j.tlo || ti > j.thi) continue;
      lo = std::min(lo, j.slo);
      hi = std::max(hi, j.shi);
      window = window.hull(
          checker_->query_window(g, j.model, horiz, cross, j.qbound, j.swept));
    }
    if (lo > hi) continue;
    auto& map = maps[static_cast<std::size_t>(ti)];
    // Exclusive over the whole load + query + reapply + write so readers of
    // this track never observe a half-refreshed window.
    auto lk = write_guard(shard(via, layer, ti));
    checker_->merged_pieces(g, window, pieces);
    buf.resize(static_cast<std::size_t>(hi - lo + 1));
    map.for_each(lo, hi + 1, [&](Coord a, Coord b, const std::uint64_t& v) {
      std::fill(buf.begin() + (a - lo), buf.begin() + (b - lo), v);
    });
    auto at = [&](int s) -> std::uint64_t& {
      return buf[static_cast<std::size_t>(s - lo)];
    };
    // Each job owns its field bits (gap bit k belongs to job (k, wire)
    // alone), so applying the covering jobs one after another to the shared
    // buffer gives the words that refreshing them one at a time would.
    for (const Job& j : jobs) {
      if (ti < j.tlo || ti > j.thi) continue;
      const std::uint64_t field = kFieldMask << j.off;
      // Reset this field (and the gap bit) to free on the job's window...
      for (int s = j.slo; s <= j.shi; ++s) at(s) = (at(s) | field) & ~j.gap;
      // ...then lower it to every blocker's ripup level.  A merged rect of
      // the shared window differs from the job's own only beyond the job's
      // query window, where the checker's answer does not depend on it
      // (window independence, DESIGN §4).
      runs.clear();
      checker_->append_runs(pieces, g, j.model, horiz, cross, j.qbound,
                            /*net=*/-3, j.kind, j.swept, runs);
      for (const ForbiddenRun& run : runs) {
        const auto [alo, ahi] = tg_->station_range(w, run.along);
        if (alo > ahi) {
          // Forbidden run strictly inside an edge: endpoint legality does
          // not imply edge legality — set the gap bit on the left vertex.
          // Guards: the left vertex must exist (alo == 0 would underflow
          // to station -1), lie inside the reset window [slo, shi], and
          // the flagged edge must exist (alo <= num_st - 1).  Runs the
          // qbound extension clipped on the left (alo <= slo) belong to
          // edges outside the window and must not be misclassified here.
          const int left = alo - 1;
          if (j.gap != 0 && left >= j.slo && left <= j.shi &&
              alo <= num_st - 1) {
            at(left) |= j.gap;
          }
          continue;
        }
        const std::uint64_t level =
            static_cast<std::uint64_t>(std::min<int>(run.ripup, 6));
        if (stale && level >= kStandard) continue;
        const std::uint64_t val = level << j.off;
        for (int s = std::max(alo, j.slo); s <= std::min(ahi, j.shi); ++s) {
          if ((at(s) & field) > val) at(s) = (at(s) & ~field) | val;
        }
      }
    }
    // One splice writes the window back; a coalesced map of a given
    // function is unique, so it stores what per-job updates would.
    map.assign_dense(lo, buf);
  }
}

void FastGrid::recompute(int g, const Rect& region) {
  static obs::Counter& c = obs::counter("fastgrid.recomputes");
  c.add();
  if (is_wiring(g)) {
    recompute_wiring(wiring_of_global(g), region);
  } else {
    recompute_via(via_of_global(g), region);
  }
}

void FastGrid::rebuild() {
  static obs::Counter& c = obs::counter("fastgrid.rebuilds");
  c.add();
  const Rect die = tg_->die().expanded(1000);
  for (int w = 0; w < tech_->num_wiring(); ++w) recompute_wiring(w, die);
  for (int v = 0; v < tech_->num_vias(); ++v) recompute_via(v, die);
}

void FastGrid::on_change(const Shape& s) { recompute(s.global_layer, s.rect); }

void FastGrid::on_change_all(std::span<const Shape> shapes) {
  // Cluster the affected rects per layer: merge rects whose expanded
  // bounding boxes intersect, then recompute once per cluster.
  std::map<int, std::vector<Rect>> by_layer;
  for (const Shape& s : shapes) by_layer[s.global_layer].push_back(s.rect);
  for (auto& [layer, rects] : by_layer) {
    std::vector<Rect> clusters;
    std::sort(rects.begin(), rects.end(),
              [](const Rect& a, const Rect& b) { return a.xlo < b.xlo; });
    for (const Rect& r : rects) {
      bool merged = false;
      for (Rect& c : clusters) {
        if (c.expanded(400).intersects(r)) {
          c = c.hull(r);
          merged = true;
          break;
        }
      }
      if (!merged) clusters.push_back(r);
    }
    for (const Rect& c : clusters) recompute(layer, c);
  }
}

std::uint8_t FastGrid::via_level(const TrackVertex& u, int wiretype) const {
  BONN_ASSERT(caches(wiretype));
  if (u.layer + 1 >= tg_->num_layers()) return 0;
  const TrackVertex p = tg_->via_up(u);
  if (!p.valid()) return 0;
  std::uint8_t lvl = wiring_field(word(u.layer, u.track, u.station), wiretype,
                                  kViaBotF);
  lvl = std::min(lvl, wiring_field(word(p.layer, p.track, p.station), wiretype,
                                   kViaTopF));
  lvl = std::min(lvl, via_field(via_word(u.layer, u.track, u.station),
                                wiretype, kCutF));
  if (u.layer + 1 < tech_->num_vias()) {
    lvl = std::min(lvl, via_field(via_word(u.layer + 1, p.track, p.station),
                                  wiretype, kProjF));
  }
  return lvl;
}

bool FastGrid::check_canonical(std::string* why) const {
  auto scan = [&](bool via,
                  const std::vector<std::vector<IntervalMap<std::uint64_t>>>&
                      maps) {
    for (std::size_t l = 0; l < maps.size(); ++l) {
      for (std::size_t t = 0; t < maps[l].size(); ++t) {
        auto lk = read_guard(
            shard(via, static_cast<int>(l), static_cast<int>(t)));
        if (!maps[l][t].check_coalesced()) {
          if (why != nullptr)
            *why += std::string("non-canonical fast-grid map: ") +
                    (via ? "via layer " : "wiring layer ") + std::to_string(l) +
                    " track " + std::to_string(t) + "\n";
          return false;
        }
      }
    }
    return true;
  };
  return scan(/*via=*/false, wiring_) && scan(/*via=*/true, via_);
}

std::size_t FastGrid::breakpoint_count() const {
  std::size_t n = 0;
  for (std::size_t l = 0; l < wiring_.size(); ++l) {
    for (std::size_t t = 0; t < wiring_[l].size(); ++t) {
      auto lk = read_guard(
          shard(/*via=*/false, static_cast<int>(l), static_cast<int>(t)));
      n += wiring_[l][t].breakpoint_count();
    }
  }
  for (std::size_t l = 0; l < via_.size(); ++l) {
    for (std::size_t t = 0; t < via_[l].size(); ++t) {
      auto lk = read_guard(
          shard(/*via=*/true, static_cast<int>(l), static_cast<int>(t)));
      n += via_[l][t].breakpoint_count();
    }
  }
  return n;
}

}  // namespace bonn
