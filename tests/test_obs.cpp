// Observability module (src/obs): JSON round-trips, the metrics registry
// under concurrency, log-scale histogram bucketing, trace-event output, the
// kill switch, and the structured run report.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/db/instance_gen.hpp"
#include "src/obs/flight.hpp"
#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/router/bonnroute.hpp"
#include "src/router/run_report.hpp"
#include "src/util/thread_pool.hpp"

namespace bonn {
namespace {


/// Metric-recording expectations only hold when instrumentation is compiled
/// in (-DBONN_OBS=ON, the default).
#define BONN_REQUIRE_OBS() \
  do {                                                             \
    if (!obs::kCompiledIn) GTEST_SKIP() << "built with -DBONN_OBS=OFF"; \
  } while (0)

std::string temp_path(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Json, BuildsAndDumps) {
  obs::Json doc = obs::Json::object();
  doc.set("int", std::int64_t{42})
      .set("neg", std::int64_t{-7})
      .set("str", "a \"quoted\"\nline")
      .set("real", 2.5)
      .set("none", nullptr)
      .set("flag", true);
  obs::Json arr = obs::Json::array();
  arr.push(1);
  arr.push(2);
  doc.set("arr", std::move(arr));
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"int\":42"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(text.find("\"none\":null"), std::string::npos);
  // Insertion order is preserved (reports diff cleanly).
  EXPECT_LT(text.find("\"int\""), text.find("\"str\""));
}

TEST(Json, RoundTrips) {
  obs::Json doc = obs::Json::object();
  doc.set("count", std::int64_t{1} << 53).set("mean", 0.125);
  obs::Json arr = obs::Json::array();
  arr.push("x");
  arr.push(nullptr);
  doc.set("items", std::move(arr));
  const auto back = obs::Json::parse(doc.dump(/*indent=*/2));
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->find("count"), nullptr);
  EXPECT_EQ(back->find("count")->as_int(), std::int64_t{1} << 53);
  EXPECT_DOUBLE_EQ(back->find("mean")->as_double(), 0.125);
  ASSERT_NE(back->find("items"), nullptr);
  EXPECT_EQ(back->find("items")->size(), 2u);
  EXPECT_TRUE(back->find("items")->at(1).is_null());
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(obs::Json::parse("{").has_value());
  EXPECT_FALSE(obs::Json::parse("[1,2,]").has_value());
  EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::Json::parse("\"unterminated").has_value());
  EXPECT_TRUE(obs::Json::parse(" { \"a\" : [ true , false ] } ").has_value());
}

TEST(Json, ParsesEscapes) {
  const auto v = obs::Json::parse(R"("aA\t\\b")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "aA\t\\b");
}

TEST(Metrics, CounterConcurrentIncrements) {
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("test.obs.concurrent");
  c.reset();
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (int i = 0; i < kPerTask; ++i) c.add();
  });
  EXPECT_EQ(c.value(), std::int64_t{kTasks} * kPerTask);
  // Handles are stable: looking the name up again hits the same counter.
  EXPECT_EQ(&obs::counter("test.obs.concurrent"), &c);
}

TEST(Metrics, KillSwitchStopsRecording) {
  BONN_REQUIRE_OBS();
  obs::Counter& c = obs::counter("test.obs.killswitch");
  c.reset();
  obs::set_enabled(false);
  c.add(100);
  EXPECT_EQ(c.value(), 0);
  obs::set_enabled(true);
  c.add(3);
  EXPECT_EQ(c.value(), 3);
}

TEST(Metrics, HistogramBuckets) {
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  // Static bucket math first: bucket b covers [2^(b-1), 2^b), bucket 0 = {0}.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_of((std::int64_t{1} << 40)),
            obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_lo(3), 4);

  obs::Histogram& h = obs::histogram("test.obs.hist");
  h.reset();
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1006);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(obs::Histogram::bucket_of(1000)), 1);
}

TEST(Metrics, HistogramQuantiles) {
  // Pure bucket math — pinned so the quantile semantics cannot drift
  // silently.  Bucket b holds values [bucket_lo(b), 2*bucket_lo(b) - 1];
  // the continuous rank q*(count-1) is interpolated across that range.
  using obs::histogram_quantile;
  EXPECT_DOUBLE_EQ(histogram_quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 0}, 0.5), 0.0);

  // All samples in a single-valued bucket: exact at every quantile.
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 10}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 10}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 10}, 1.0), 1.0);

  // Half zeros, half ones: the median rank 4.5 is still among the zeros.
  EXPECT_DOUBLE_EQ(histogram_quantile({5, 5}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({5, 5}, 0.9), 1.0);

  // Four samples in bucket 3 = [4, 7]: interpolation across the range.
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 0, 0, 4}, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 0, 0, 4}, 0.5), 5.125);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 0, 0, 4}, 1.0), 6.25);

  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 10}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({0, 10}, 2.0), 1.0);

  // And the JSON rendering carries the three fixed quantiles.
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  obs::Histogram& h = obs::histogram("test.obs.quant");
  h.reset();
  for (int i = 0; i < 10; ++i) h.record(1);
  const obs::Json j = obs::metrics_json();
  const obs::Json* hj = j.find("test.obs.quant");
  ASSERT_NE(hj, nullptr);
  for (const char* key : {"p50", "p95", "p99"}) {
    ASSERT_NE(hj->find(key), nullptr) << "histogram JSON missing " << key;
    EXPECT_DOUBLE_EQ(hj->find(key)->as_double(), 1.0);
  }
}

TEST(Metrics, GaugeAvailability) {
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  obs::Gauge& g = obs::gauge("test.obs.gauge");
  g.reset();
  EXPECT_FALSE(g.was_set());
  g.set(1.5);
  EXPECT_TRUE(g.was_set());
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, SnapshotAndJson) {
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  obs::counter("test.obs.snap_c").reset();
  obs::counter("test.obs.snap_c").add(7);
  obs::gauge("test.obs.snap_g").set(0.5);
  const auto snap = obs::registry().snapshot();
  bool saw_c = false;
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name) << "snapshot must be sorted";
  }
  for (const auto& s : snap) {
    if (s.name == "test.obs.snap_c") {
      saw_c = true;
      EXPECT_EQ(s.count, 7);
    }
  }
  EXPECT_TRUE(saw_c);
  const obs::Json j = obs::metrics_json();
  ASSERT_NE(j.find("test.obs.snap_c"), nullptr);
  EXPECT_EQ(j.find("test.obs.snap_c")->as_int(), 7);
  ASSERT_NE(j.find("test.obs.snap_g"), nullptr);
  EXPECT_DOUBLE_EQ(j.find("test.obs.snap_g")->as_double(), 0.5);
}

TEST(Trace, WritesParseableChromeEvents) {
  const std::string path = temp_path("bonn_trace_test.json");
  ASSERT_TRUE(obs::Trace::start(path));
  EXPECT_FALSE(obs::Trace::start(path)) << "second start must be rejected";
  {
    BONN_TRACE_SPAN("test.outer");
    ThreadPool pool(4);
    pool.parallel_for(8, [&](std::size_t) { BONN_TRACE_SPAN("test.worker"); });
    obs::Trace::counter_event("test.level", 2.5);
  }
  ASSERT_TRUE(obs::Trace::stop());
  EXPECT_FALSE(obs::Trace::stop()) << "stop without a session must fail";

  const auto doc = obs::Json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value()) << "trace file must be valid JSON";
  ASSERT_TRUE(doc->is_array());
  ASSERT_GE(doc->size(), 10u);  // 1 outer + 8 workers + 1 counter
  std::set<std::string> names;
  std::set<std::string> thread_names;
  std::uint64_t prev_ts = 0;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const obs::Json& e = doc->at(i);
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      ASSERT_NE(e.find(key), nullptr) << "event missing " << key;
    }
    const std::string& ph = e.find("ph")->as_string();
    EXPECT_TRUE(ph == "X" || ph == "C" || ph == "M") << ph;
    if (ph == "X") {
      EXPECT_NE(e.find("dur"), nullptr);
    }
    if (ph == "C") {
      ASSERT_NE(e.find("args"), nullptr);
    }
    if (ph == "M") {
      // Thread-name metadata: emitted first so viewers label the rows.
      EXPECT_EQ(e.find("name")->as_string(), "thread_name");
      const obs::Json* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("name"), nullptr);
      thread_names.insert(args->find("name")->as_string());
    }
    const auto ts = static_cast<std::uint64_t>(e.find("ts")->as_int());
    EXPECT_GE(ts, prev_ts) << "events must be sorted by timestamp";
    prev_ts = ts;
    names.insert(e.find("name")->as_string());
  }
  EXPECT_TRUE(names.count("test.outer"));
  EXPECT_TRUE(names.count("test.worker"));
  EXPECT_TRUE(names.count("test.level"));
  // The pool's workers announced themselves via set_thread_name.
  EXPECT_TRUE(thread_names.count("worker-0")) << "missing thread_name M event";
  EXPECT_EQ(obs::Trace::dropped(), 0u);
  std::remove(path.c_str());
}

TEST(Trace, SpansCarryFlowPhase) {
  const std::string path = temp_path("bonn_trace_phase_test.json");
  ASSERT_TRUE(obs::Trace::start(path));
  obs::set_phase("detailed");
  { BONN_TRACE_SPAN("test.phased"); }
  obs::set_phase("");
  { BONN_TRACE_SPAN("test.unphased"); }
  ASSERT_TRUE(obs::Trace::stop());

  const auto doc = obs::Json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  bool saw_phased = false;
  bool saw_unphased = false;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const obs::Json& e = doc->at(i);
    const std::string& name = e.find("name")->as_string();
    if (name == "test.phased") {
      saw_phased = true;
      const obs::Json* args = e.find("args");
      ASSERT_NE(args, nullptr) << "phased span must carry args.phase";
      ASSERT_NE(args->find("phase"), nullptr);
      EXPECT_EQ(args->find("phase")->as_string(), "detailed");
    } else if (name == "test.unphased") {
      saw_unphased = true;
      // No phase set: the span carries no phase annotation.
      const obs::Json* args = e.find("args");
      if (args != nullptr) {
        EXPECT_EQ(args->find("phase"), nullptr);
      }
    }
  }
  EXPECT_TRUE(saw_phased);
  EXPECT_TRUE(saw_unphased);
  std::remove(path.c_str());
}

TEST(Flight, RecordsQueryAndExplain) {
  obs::Flight::set_enabled(true);
  obs::Flight::reset();
  obs::FlightRecord rec;
  rec.net = 7;
  rec.window = 2;
  rec.phase = "detailed";
  rec.mode = "ontrack";
  rec.pops = 100;
  rec.pushes = 150;
  rec.outcome = 'F';
  rec.start_us = 10;
  rec.dur_us = 5;
  obs::Flight::record(rec);
  rec.outcome = 'R';
  rec.start_us = 20;
  obs::Flight::record(rec);
  obs::FlightRecord other;
  other.net = 9;
  other.outcome = 'R';
  other.start_us = 15;
  obs::Flight::record(other);

  const auto all = obs::Flight::snapshot();
  ASSERT_EQ(all.size(), 3u);
  // Sorted by start time across the merge.
  EXPECT_EQ(all[0].start_us, 10u);
  EXPECT_EQ(all[1].start_us, 15u);
  EXPECT_EQ(all[2].start_us, 20u);

  const auto net7 = obs::Flight::for_net(7);
  ASSERT_EQ(net7.size(), 2u);
  EXPECT_EQ(net7[0].outcome, 'F');
  EXPECT_EQ(net7[1].outcome, 'R');

  const obs::Json doc = obs::Flight::explain(7);
  ASSERT_NE(doc.find("summary"), nullptr);
  const obs::Json& s = *doc.find("summary");
  EXPECT_EQ(s.find("attempts")->as_int(), 2);
  EXPECT_EQ(s.find("routed")->as_int(), 1);
  EXPECT_EQ(s.find("failed")->as_int(), 1);
  EXPECT_EQ(s.find("total_pops")->as_int(), 200);
  EXPECT_EQ(s.find("last_outcome")->as_string(), "R");

  // Full dump carries every field of a record.
  const obs::Json dump = obs::Flight::to_json();
  ASSERT_EQ(dump.size(), 3u);
  const obs::Json& first = dump.at(0);
  for (const char* key :
       {"net", "window", "phase", "mode", "pops", "pushes", "ripups",
        "rollbacks", "ladder_rungs", "rip_first", "budget_stopped", "outcome",
        "tid", "start_us", "dur_us"}) {
    EXPECT_NE(first.find(key), nullptr) << "record JSON missing " << key;
  }
  obs::Flight::reset();
  EXPECT_TRUE(obs::Flight::snapshot().empty());
  obs::Flight::set_enabled(false);
}

TEST(Flight, DisabledRecordIsNoOpAndRingOverwrites) {
  obs::Flight::set_enabled(false);
  obs::Flight::reset();
  obs::FlightRecord rec;
  rec.net = 1;
  obs::Flight::record(rec);
  EXPECT_TRUE(obs::Flight::snapshot().empty()) << "disabled must drop records";

  // Overflow the per-thread ring: the oldest records are displaced and
  // counted, the newest kept.
  obs::Flight::set_enabled(true);
  obs::Flight::reset();
  const int kCap = 1 << 13;
  const int kTotal = kCap + 100;
  for (int i = 0; i < kTotal; ++i) {
    obs::FlightRecord r;
    r.net = i;
    r.start_us = static_cast<std::uint64_t>(i);
    obs::Flight::record(r);
  }
  const auto all = obs::Flight::snapshot();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kCap));
  EXPECT_EQ(obs::Flight::overwritten(), 100u);
  EXPECT_EQ(all.front().net, 100) << "oldest 100 displaced";
  EXPECT_EQ(all.back().net, kTotal - 1);
  obs::Flight::reset();
  EXPECT_EQ(obs::Flight::overwritten(), 0u);
  obs::Flight::set_enabled(false);
}

TEST(Flight, WritesChromeTrace) {
  obs::Flight::set_enabled(true);
  obs::Flight::reset();
  obs::FlightRecord rec;
  rec.net = 3;
  rec.phase = "detailed";
  rec.mode = "ontrack";
  rec.outcome = 'R';
  rec.start_us = 50;
  rec.dur_us = 7;
  obs::Flight::record(rec);
  const std::string path = temp_path("bonn_flight_trace.json");
  ASSERT_TRUE(obs::Flight::write_chrome_trace(path));
  const auto doc = obs::Json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  bool saw_attempt = false;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const obs::Json& e = doc->at(i);
    if (e.find("ph")->as_string() == "X") {
      saw_attempt = true;
      EXPECT_NE(e.find("args"), nullptr);
      EXPECT_EQ(e.find("args")->find("net")->as_int(), 3);
    }
  }
  EXPECT_TRUE(saw_attempt);
  obs::Flight::reset();
  obs::Flight::set_enabled(false);
  std::remove(path.c_str());
}

TEST(Trace, InactiveSessionRecordsNothing) {
  ASSERT_FALSE(obs::Trace::active());
  // Must be harmless no-ops.
  obs::Trace::complete_event("test.noop", 0, 1);
  obs::Trace::counter_event("test.noop", 1.0);
  { BONN_TRACE_SPAN("test.noop"); }
}

TEST(RunReport, RoundTripsThroughJson) {
  BONN_REQUIRE_OBS();
  obs::set_enabled(true);
  obs::counter("test.obs.report_marker").reset();
  obs::counter("test.obs.report_marker").add(11);
  FlowReport rep;
  rep.total_seconds = 1.25;
  rep.netlength = 123456;
  rep.vias = 789;
  rep.preroute_nets = 4;
  rep.global.oracle_calls = 17;
  const obs::Json doc = flow_report_json("bonnroute", rep);
  EXPECT_EQ(doc.find("schema")->as_int(), 1);
  EXPECT_EQ(doc.find("flow")->as_string(), "bonnroute");
  ASSERT_NE(doc.find("quality"), nullptr);
  EXPECT_EQ(doc.find("quality")->find("netlength_dbu")->as_int(), 123456);
  EXPECT_EQ(doc.find("quality")->find("vias")->as_int(), 789);
  ASSERT_NE(doc.find("global"), nullptr);
  EXPECT_EQ(doc.find("global")->find("oracle_calls")->as_int(), 17);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_EQ(doc.find("metrics")->find("test.obs.report_marker")->as_int(), 11);

  const std::string path = temp_path("bonn_report_test.json");
  ASSERT_TRUE(write_run_report(path, "bonnroute", rep));
  const auto back = obs::Json::parse(slurp(path));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->find("flow")->as_string(), "bonnroute");
  EXPECT_EQ(back->find("quality")->find("vias")->as_int(), 789);
  std::remove(path.c_str());
}

TEST(ObsEnv, FalsyBonnObsKeepsFlowMetricsOff) {
  BONN_REQUIRE_OBS();
  // Every flow reads BONN_OBS with the registry's own truthy-flag parser,
  // so each falsy spelling keeps metrics off through a whole flow — not
  // only "0".
  ChipParams cp;
  cp.tiles_x = 2;
  cp.tiles_y = 2;
  cp.tracks_per_tile = 30;
  cp.num_nets = 10;
  const Chip chip = generate_chip(cp);
  FlowParams fp;
  fp.tiles_x = 2;
  fp.tiles_y = 2;
  fp.global.sharing.phases = 2;
  for (const char* value : {"0", "no", "false", "N", "off", "OFF"}) {
    SCOPED_TRACE(value);
    ::setenv("BONN_OBS", value, 1);
    obs::set_enabled(false);
    obs::registry().reset();
    const FlowReport r = run_bonnroute_flow(chip, fp);
    EXPECT_NE(r.outcome, FlowOutcome::kFailed);
    EXPECT_GT(r.detailed.connections_routed, 0);
    EXPECT_FALSE(obs::enabled());
    EXPECT_EQ(obs::counter("detailed.connections_routed").value(), 0);
  }
  ::unsetenv("BONN_OBS");
  obs::set_enabled(true);

  // The parser itself: unset reads as the caller's default.
  EXPECT_TRUE(obs::env_flag("BONN_OBS_TEST_FLAG", true));
  EXPECT_FALSE(obs::env_flag("BONN_OBS_TEST_FLAG", false));
  for (const char* on : {"1", "yes", "true", "Y", "on", "ON"}) {
    ::setenv("BONN_OBS_TEST_FLAG", on, 1);
    EXPECT_TRUE(obs::env_flag("BONN_OBS_TEST_FLAG", false)) << on;
  }
  for (const char* off : {"0", "no", "No", "false", "F", "off", "Off"}) {
    ::setenv("BONN_OBS_TEST_FLAG", off, 1);
    EXPECT_FALSE(obs::env_flag("BONN_OBS_TEST_FLAG", true)) << off;
  }
  // A value that is neither keeps the caller's default (the flows fail
  // the run on it with an env.parse error).
  for (const char* bad : {"disable", "maybe", ""}) {
    ::setenv("BONN_OBS_TEST_FLAG", bad, 1);
    EXPECT_TRUE(obs::env_flag("BONN_OBS_TEST_FLAG", true)) << bad;
    EXPECT_FALSE(obs::env_flag("BONN_OBS_TEST_FLAG", false)) << bad;
  }
  ::unsetenv("BONN_OBS_TEST_FLAG");
}

TEST(Trace, BrFlowOpensOnePrecomputeAccessSpan) {
  // NetRouter::precompute_access opens its own span; the BR flow's
  // preroute phase must not wrap it in a second one of the same name.
  ChipParams cp;
  cp.tiles_x = 2;
  cp.tiles_y = 2;
  cp.tracks_per_tile = 30;
  cp.num_nets = 10;
  const Chip chip = generate_chip(cp);
  FlowParams fp;
  fp.tiles_x = 2;
  fp.tiles_y = 2;
  fp.global.sharing.phases = 2;
  fp.obs.trace_path = temp_path("bonn_trace_precompute_test.json");
  const FlowReport r = run_bonnroute_flow(chip, fp);
  EXPECT_NE(r.outcome, FlowOutcome::kFailed);

  const auto doc = obs::Json::parse(slurp(fp.obs.trace_path));
  ASSERT_TRUE(doc.has_value());
  int in_preroute = 0;
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const obs::Json& e = doc->at(i);
    if (e.find("name")->as_string() != "detailed.precompute_access") continue;
    const obs::Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("phase"), nullptr);
    in_preroute += args->find("phase")->as_string() == "preroute";
  }
  EXPECT_EQ(in_preroute, 1);
  std::remove(fp.obs.trace_path.c_str());
}

TEST(Log, LevelGate) {
  obs::set_log_level(obs::LogLevel::kOff);
  EXPECT_FALSE(obs::log_on(obs::LogLevel::kError));
  obs::set_log_level(obs::LogLevel::kWarn);
  EXPECT_TRUE(obs::log_on(obs::LogLevel::kError));
  EXPECT_TRUE(obs::log_on(obs::LogLevel::kWarn));
  EXPECT_FALSE(obs::log_on(obs::LogLevel::kDebug));
  obs::set_log_level(obs::LogLevel::kOff);
}

}  // namespace
}  // namespace bonn
