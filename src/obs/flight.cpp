#include "src/obs/flight.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>

#include "src/obs/metrics.hpp"

namespace bonn::obs {

namespace {

/// Per-thread ring.  Bounded: a pathological run (millions of attempts)
/// keeps the most recent kCap records per thread and counts the rest as
/// overwritten instead of growing without limit.
struct Ring {
  static constexpr std::size_t kCap = 1u << 13;
  std::vector<FlightRecord> records;
  std::size_t next = 0;  ///< overwrite cursor once records.size() == kCap
  std::uint32_t tid = 0;
};

struct Globals {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  std::atomic<std::uint64_t> overwritten{0};
  std::atomic<const char*> phase{""};
};

Globals& globals() {
  static Globals* g = new Globals;  // leaked: threads may outlive main
  return *g;
}

Ring& local_ring() {
  thread_local Ring* ring = [] {
    Globals& g = globals();
    std::lock_guard<std::mutex> lock(g.mu);
    g.rings.push_back(std::make_unique<Ring>());
    g.rings.back()->tid = static_cast<std::uint32_t>(g.rings.size());
    return g.rings.back().get();
  }();
  return *ring;
}

/// A ring's records in chronological order (oldest first).
void append_in_order(const Ring& r, std::vector<FlightRecord>& out) {
  if (r.records.size() < Ring::kCap) {
    out.insert(out.end(), r.records.begin(), r.records.end());
    return;
  }
  out.insert(out.end(), r.records.begin() + static_cast<std::ptrdiff_t>(r.next),
             r.records.end());
  out.insert(out.end(), r.records.begin(),
             r.records.begin() + static_cast<std::ptrdiff_t>(r.next));
}

Json record_json(const FlightRecord& r) {
  Json o = Json::object();
  o.set("net", Json(r.net));
  o.set("window", Json(r.window));
  o.set("phase", Json(r.phase));
  o.set("mode", Json(r.mode));
  o.set("pops", Json(r.pops));
  o.set("pushes", Json(r.pushes));
  o.set("ripups", Json(r.ripups));
  o.set("rollbacks", Json(r.rollbacks));
  o.set("ladder_rungs", Json(r.ladder_rungs));
  o.set("rip_first", Json(r.rip_first));
  o.set("budget_stopped", Json(r.budget_stopped));
  if (r.watchdog_stopped) o.set("watchdog_stop", Json(true));
  if (r.quarantine[0] != '\0') o.set("quarantine", Json(r.quarantine));
  o.set("outcome", Json(std::string(1, r.outcome)));
  o.set("tid", Json(static_cast<std::int64_t>(r.tid)));
  o.set("start_us", Json(static_cast<std::int64_t>(r.start_us)));
  o.set("dur_us", Json(static_cast<std::int64_t>(r.dur_us)));
  return o;
}

}  // namespace

std::atomic<bool> Flight::g_enabled{env_flag("BONN_FLIGHT", false)};

void Flight::set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

void Flight::record(const FlightRecord& rec) noexcept {
  if (!enabled()) return;
  Ring& r = local_ring();
  FlightRecord copy = rec;
  copy.tid = r.tid;
  if (r.records.size() < Ring::kCap) {
    r.records.push_back(copy);
    return;
  }
  r.records[r.next] = copy;
  r.next = (r.next + 1) % Ring::kCap;
  globals().overwritten.fetch_add(1, std::memory_order_relaxed);
}

void Flight::reset() {
  Globals& g = globals();
  std::lock_guard<std::mutex> lock(g.mu);
  for (auto& r : g.rings) {
    r->records.clear();
    r->next = 0;
  }
  g.overwritten.store(0, std::memory_order_relaxed);
}

std::vector<FlightRecord> Flight::snapshot() {
  Globals& g = globals();
  std::vector<FlightRecord> all;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    for (const auto& r : g.rings) append_in_order(*r, all);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     return a.start_us < b.start_us;
                   });
  return all;
}

std::vector<FlightRecord> Flight::for_net(int net) {
  std::vector<FlightRecord> all = snapshot();
  std::vector<FlightRecord> out;
  for (const FlightRecord& r : all) {
    if (r.net == net) out.push_back(r);
  }
  return out;
}

std::uint64_t Flight::overwritten() noexcept {
  return globals().overwritten.load(std::memory_order_relaxed);
}

Json Flight::to_json() {
  Json arr = Json::array();
  for (const FlightRecord& r : snapshot()) arr.push(record_json(r));
  return arr;
}

Json Flight::explain(int net) {
  const std::vector<FlightRecord> recs = for_net(net);
  Json doc = Json::object();
  doc.set("net", Json(net));
  int routed = 0, failed = 0, errors = 0, watchdog_stops = 0;
  std::int64_t pops = 0, pushes = 0;
  std::uint64_t us = 0;
  const char* quarantine = "";
  Json attempts = Json::array();
  for (const FlightRecord& r : recs) {
    attempts.push(record_json(r));
    switch (r.outcome) {
      case 'R': ++routed; break;
      case 'E': ++errors; break;
      default: ++failed; break;
    }
    if (r.watchdog_stopped) ++watchdog_stops;
    if (r.quarantine[0] != '\0') quarantine = r.quarantine;
    pops += r.pops;
    pushes += r.pushes;
    us += r.dur_us;
  }
  Json summary = Json::object();
  summary.set("attempts", Json(static_cast<std::int64_t>(recs.size())));
  summary.set("routed", Json(routed));
  summary.set("failed", Json(failed));
  summary.set("recovered_errors", Json(errors));
  summary.set("watchdog_stops", Json(watchdog_stops));
  if (quarantine[0] != '\0') summary.set("quarantined", Json(quarantine));
  summary.set("total_pops", Json(pops));
  summary.set("total_pushes", Json(pushes));
  summary.set("total_us", Json(static_cast<std::int64_t>(us)));
  summary.set("last_outcome",
              Json(recs.empty() ? std::string("none")
                                : std::string(1, recs.back().outcome)));
  doc.set("summary", std::move(summary));
  doc.set("attempts", std::move(attempts));
  return doc;
}

bool Flight::write_chrome_trace(const std::string& path) {
  Json events = Json::array();
  std::vector<std::uint32_t> tids;
  for (const FlightRecord& r : snapshot()) {
    Json ev = Json::object();
    ev.set("name", Json("net " + std::to_string(r.net)));
    ev.set("cat", Json("flight"));
    ev.set("ph", Json("X"));
    ev.set("ts", Json(static_cast<std::int64_t>(r.start_us)));
    ev.set("dur", Json(static_cast<std::int64_t>(r.dur_us)));
    ev.set("pid", Json(1));
    ev.set("tid", Json(static_cast<std::int64_t>(r.tid)));
    ev.set("args", record_json(r));
    events.push(std::move(ev));
    if (std::find(tids.begin(), tids.end(), r.tid) == tids.end()) {
      tids.push_back(r.tid);
    }
  }
  for (const std::uint32_t tid : tids) {
    Json ev = Json::object();
    ev.set("name", Json("thread_name"));
    ev.set("ph", Json("M"));
    ev.set("pid", Json(1));
    ev.set("tid", Json(static_cast<std::int64_t>(tid)));
    Json args = Json::object();
    args.set("name", Json("flight-" + std::to_string(tid)));
    ev.set("args", std::move(args));
    events.push(std::move(ev));
  }
  std::ofstream out(path);
  if (!out) return false;
  out << events.dump(1) << '\n';
  return static_cast<bool>(out);
}

void set_phase(const char* phase) noexcept {
  globals().phase.store(phase != nullptr ? phase : "",
                        std::memory_order_relaxed);
}

const char* current_phase() noexcept {
  return globals().phase.load(std::memory_order_relaxed);
}

}  // namespace bonn::obs
