// Utility-layer tests: RNG determinism and distribution sanity, thread pool
// correctness under load, check macros, execution budgets, strict environment
// variable parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>

#include "src/util/assert.hpp"
#include "src/util/budget.hpp"
#include "src/util/env.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace bonn {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
    const auto u = rng.below(13);
    EXPECT_LT(u, 13u);
    const double d = rng.uniform();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(99);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(Rng, FlipProbability) {
  Rng rng(123);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.flip(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForGrainCoversAllIndices) {
  ThreadPool pool(4);
  for (const std::size_t grain : {0ul, 1ul, 3ul, 16ul, 1000ul}) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(257, [&](std::size_t i) { ++hits[i]; }, grain);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

TEST(ThreadPool, GrainBatchesAreContiguous) {
  // Within one grain batch, indices run consecutively on one thread; record
  // the batch id per index and check each batch covers a contiguous range.
  ThreadPool pool(3);
  const std::size_t n = 100, grain = 7;
  std::vector<int> batch(n, -1);
  std::atomic<int> next_batch{0};
  pool.parallel_for(
      n,
      [&](std::size_t i) {
        thread_local int id = -1;
        thread_local std::size_t last = 0;
        if (id < 0 || i != last + 1) id = next_batch++;
        last = i;
        batch[i] = id;
      },
      grain);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    ASSERT_GE(batch[i], 0);
    if (batch[i] == batch[i + 1]) continue;
    // A batch boundary must fall on a grain multiple.
    EXPECT_EQ((i + 1) % grain, 0u) << "boundary at " << i + 1;
  }
}

TEST(ThreadPool, SubmitAndWait) {
  ThreadPool pool(3);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum += i; });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 20);
}

TEST(Checks, BonnCheckThrows) {
  EXPECT_NO_THROW(BONN_CHECK(1 + 1 == 2));
  EXPECT_THROW(BONN_CHECK(1 + 1 == 3), std::logic_error);
  try {
    BONN_CHECK_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(Budget, DeadlineBasics) {
  EXPECT_FALSE(Deadline::never().expired());
  EXPECT_TRUE(std::isinf(Deadline::never().remaining_seconds()));
  EXPECT_TRUE(Deadline::after_seconds(0).expired());
  EXPECT_TRUE(Deadline::after_seconds(-1).expired());
  const Deadline far = Deadline::after_seconds(3600);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), 3500.0);
}

TEST(Budget, MemoryBudgetBasics) {
  EXPECT_TRUE(MemoryBudget().unlimited());
  EXPECT_FALSE(MemoryBudget().exceeded());
  EXPECT_FALSE(MemoryBudget::of_gb(1024).exceeded());
#ifdef __linux__
  // A running test binary has a nonzero RSS, which any microscopic cap trips.
  EXPECT_GT(MemoryBudget::current_rss_gb(), 0.0);
  EXPECT_TRUE(MemoryBudget::of_gb(1e-6).exceeded());
#endif
}

TEST(Budget, CancelTokenHierarchy) {
  const CancelToken none = CancelToken::none();
  EXPECT_FALSE(none.can_cancel());
  none.cancel();  // inert by design
  EXPECT_FALSE(none.cancelled());

  CancelToken root;
  CancelToken child = root.child();
  CancelToken sibling = root.child();
  child.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(root.cancelled());
  EXPECT_FALSE(sibling.cancelled());
  root.cancel();
  EXPECT_TRUE(root.cancelled());
  EXPECT_TRUE(sibling.cancelled());
}

TEST(Budget, LatchesFirstReason) {
  Budget unlimited;
  EXPECT_FALSE(unlimited.limited());
  EXPECT_FALSE(unlimited.stopped());

  CancelToken cancel;
  Budget b(Deadline::after_seconds(0), MemoryBudget(), cancel);
  EXPECT_TRUE(b.limited());
  EXPECT_EQ(b.stop_reason(), StopReason::kDeadline);
  // A later cancellation cannot overwrite the latched reason.
  cancel.cancel();
  EXPECT_EQ(b.stop_reason(), StopReason::kDeadline);
}

TEST(Budget, PollTripIsDeterministic) {
  Budget b;
  b.set_poll_trip(3);
  EXPECT_TRUE(b.limited());
  EXPECT_EQ(b.stop_reason(), StopReason::kNone);       // poll 0
  EXPECT_EQ(b.stop_reason(), StopReason::kNone);       // poll 1
  EXPECT_EQ(b.stop_reason(), StopReason::kNone);       // poll 2
  EXPECT_EQ(b.stop_reason(), StopReason::kCancelled);  // poll 3 trips
  EXPECT_EQ(b.stop_reason(), StopReason::kCancelled);  // latched
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kMemory), "memory");
  EXPECT_STREQ(to_string(StopReason::kCancelled), "cancelled");
}

TEST(ThreadPool, ParallelForHonoursBudget) {
  ThreadPool pool(3);
  Budget tripped;
  tripped.set_poll_trip(0);
  std::atomic<int> ran{0};
  pool.parallel_for(1000, [&](std::size_t) { ++ran; }, 8, &tripped);
  EXPECT_EQ(ran.load(), 0);
  Budget open;
  pool.parallel_for(1000, [&](std::size_t) { ++ran; }, 8, &open);
  EXPECT_EQ(ran.load(), 1000);
  pool.parallel_for(1000, [&](std::size_t) { ++ran; }, 8, nullptr);
  EXPECT_EQ(ran.load(), 2000);
}

TEST(Env, StrictIntParsing) {
  std::vector<FlowError> errors;
  unsetenv("BONN_TEST_ENV");
  EXPECT_FALSE(env_int("BONN_TEST_ENV", 0, 100, errors).has_value());
  setenv("BONN_TEST_ENV", "42", 1);
  EXPECT_EQ(env_int("BONN_TEST_ENV", 0, 100, errors).value_or(-1), 42);
  setenv("BONN_TEST_ENV", "  7  ", 1);  // surrounding whitespace tolerated
  EXPECT_EQ(env_int("BONN_TEST_ENV", 0, 100, errors).value_or(-1), 7);
  setenv("BONN_TEST_ENV", "12abc", 1);  // trailing garbage rejected
  EXPECT_FALSE(env_int("BONN_TEST_ENV", 0, 100, errors).has_value());
  setenv("BONN_TEST_ENV", "999", 1);  // out of range rejected
  EXPECT_FALSE(env_int("BONN_TEST_ENV", 0, 100, errors).has_value());
  setenv("BONN_TEST_ENV", "-1", 1);
  EXPECT_FALSE(env_int("BONN_TEST_ENV", 0, 100, errors).has_value());
  setenv("BONN_TEST_ENV", "", 1);  // empty rejected
  EXPECT_FALSE(env_int("BONN_TEST_ENV", 0, 100, errors).has_value());
  unsetenv("BONN_TEST_ENV");
  // Each rejected value is one "env.parse" error; unset and valid are none.
  EXPECT_EQ(errors.size(), 4u);
  for (const FlowError& e : errors) EXPECT_EQ(e.code, "env.parse");
}

TEST(Env, StrictDoubleParsing) {
  std::vector<FlowError> errors;
  unsetenv("BONN_TEST_ENV");
  EXPECT_FALSE(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).has_value());
  setenv("BONN_TEST_ENV", "1.5", 1);
  EXPECT_DOUBLE_EQ(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).value_or(-1), 1.5);
  setenv("BONN_TEST_ENV", "nan", 1);  // non-finite rejected
  EXPECT_FALSE(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).has_value());
  setenv("BONN_TEST_ENV", "inf", 1);
  EXPECT_FALSE(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).has_value());
  setenv("BONN_TEST_ENV", "bogus", 1);
  EXPECT_FALSE(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).has_value());
  setenv("BONN_TEST_ENV", "99", 1);  // out of range rejected
  EXPECT_FALSE(env_double("BONN_TEST_ENV", 0.0, 10.0, errors).has_value());
  unsetenv("BONN_TEST_ENV");
  EXPECT_EQ(errors.size(), 4u);
  for (const FlowError& e : errors) EXPECT_EQ(e.code, "env.parse");
}

TEST(Env, StrictFlagParsing) {
  std::vector<FlowError> errors;
  unsetenv("BONN_TEST_ENV");
  EXPECT_FALSE(env_bool("BONN_TEST_ENV", errors).has_value());
  for (const char* on : {"1", "y", "Yes", "t", "TRUE", "on", "On"}) {
    setenv("BONN_TEST_ENV", on, 1);
    EXPECT_EQ(env_bool("BONN_TEST_ENV", errors), std::optional<bool>(true))
        << on;
  }
  for (const char* off : {"0", "N", "no", "f", "False", "off", "OFF"}) {
    setenv("BONN_TEST_ENV", off, 1);
    EXPECT_EQ(env_bool("BONN_TEST_ENV", errors), std::optional<bool>(false))
        << off;
  }
  EXPECT_TRUE(errors.empty());
  // Whole values only: a prefix of an on/off word is not enough.
  for (const char* bad : {"disable", "maybe", "", "nope", "1x", "of"}) {
    setenv("BONN_TEST_ENV", bad, 1);
    EXPECT_FALSE(env_bool("BONN_TEST_ENV", errors).has_value()) << bad;
  }
  unsetenv("BONN_TEST_ENV");
  EXPECT_EQ(errors.size(), 6u);
  for (const FlowError& e : errors) EXPECT_EQ(e.code, "env.parse");
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000000; ++i) x = x + i;
  EXPECT_GE(t.seconds(), 0.0);
  StopWatch w;
  w.start();
  w.stop();
  w.start();
  w.stop();
  EXPECT_GE(w.seconds(), 0.0);
}

}  // namespace
}  // namespace bonn
