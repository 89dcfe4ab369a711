// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.hpp"

namespace griphon::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), SimTime{});
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, AdvancesToEventTime) {
  Engine e;
  SimTime seen{};
  e.schedule(seconds(5), [&]() { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, seconds(5));
  EXPECT_EQ(e.now(), seconds(5));
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(seconds(3), [&]() { order.push_back(3); });
  e.schedule(seconds(1), [&]() { order.push_back(1); });
  e.schedule(seconds(2), [&]() { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, FifoTieBreakAtEqualTimes) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    e.schedule(seconds(1), [&order, i]() { order.push_back(i); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedSchedulingWorks) {
  Engine e;
  std::vector<SimTime> at;
  e.schedule(seconds(1), [&]() {
    at.push_back(e.now());
    e.schedule(seconds(1), [&]() { at.push_back(e.now()); });
  });
  e.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[1], seconds(2));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  e.schedule(seconds(5), [&]() {
    e.schedule(seconds(-3), [&]() { EXPECT_EQ(e.now(), seconds(5)); });
  });
  e.run();
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const auto h = e.schedule(seconds(1), [&]() { fired = true; });
  e.cancel(h);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  const auto h = e.schedule(seconds(1), []() {});
  e.run();
  e.cancel(h);  // must not crash or corrupt
  EXPECT_EQ(e.pending(), 0u);
  e.schedule(seconds(1), []() {});
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, DoubleCancelIsNoop) {
  Engine e;
  bool fired = false;
  const auto h = e.schedule(seconds(1), []() {});
  e.schedule(seconds(2), [&]() { fired = true; });
  e.cancel(h);
  e.cancel(h);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, StaleHandleDoesNotCancelTheEventReusingItsSlot) {
  Engine e;
  int fired = 0;
  const auto cancelled = e.schedule(seconds(1), []() {});
  e.cancel(cancelled);
  e.schedule(seconds(1), [&]() { ++fired; });  // takes the freed slot
  e.cancel(cancelled);
  const auto done = e.schedule(seconds(2), []() {});
  e.run_until(seconds(2));
  e.schedule(seconds(1), [&]() { ++fired; });  // takes the fired slot
  e.cancel(done);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const auto h = e.schedule(seconds(1), []() {});
  e.schedule(seconds(2), []() {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(h);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(seconds(1), [&]() { ++fired; });
  e.schedule(seconds(10), [&]() { ++fired; });
  const auto n = e.run_until(seconds(5));
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), seconds(5));
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesDeadlineInstant) {
  Engine e;
  bool fired = false;
  e.schedule(seconds(5), [&]() { fired = true; });
  e.run_until(seconds(5));
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilCancelledHeadDoesNotAdmitLaterEvents) {
  // Regression: a cancelled event inside the horizon sat at the queue
  // head; run_until's deadline check passed, and pop_one() then skipped
  // the cancelled entry and fired the next live event — far beyond the
  // deadline.
  Engine e;
  bool fired = false;
  const auto h = e.schedule(seconds(1), []() {});
  e.schedule(seconds(100), [&]() { fired = true; });
  e.cancel(h);
  const auto n = e.run_until(seconds(5));
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), seconds(5));
  e.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(e.now(), seconds(100));
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule(seconds(1), [&]() { ++fired; });
  e.schedule(seconds(2), [&]() { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunReturnsEventCount) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule(seconds(i), []() {});
  EXPECT_EQ(e.run(), 7u);
  EXPECT_EQ(e.fired(), 7u);
}

TEST(Engine, DeterministicWithSameSeed) {
  auto run = [](std::uint64_t seed) {
    Engine e(seed);
    std::vector<double> draws;
    for (int i = 0; i < 5; ++i) draws.push_back(e.rng().uniform(0, 1));
    return draws;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

// Property: however events are scheduled (random times, random nesting),
// observed firing times are monotonically nondecreasing.
class EngineOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineOrderProperty, TimeNeverGoesBackwards) {
  Engine e(GetParam());
  std::vector<SimTime> observed;
  std::function<void(int)> spawn = [&](int depth) {
    observed.push_back(e.now());
    if (depth <= 0) return;
    const int children = static_cast<int>(e.rng().uniform_int(0, 3));
    for (int i = 0; i < children; ++i) {
      e.schedule(from_seconds(e.rng().uniform(0, 10)),
                 [&spawn, depth]() { spawn(depth - 1); });
    }
  };
  for (int i = 0; i < 5; ++i)
    e.schedule(from_seconds(e.rng().uniform(0, 10)),
               [&spawn]() { spawn(3); });
  e.run();
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_LE(observed[i - 1], observed[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineOrderProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace griphon::sim
