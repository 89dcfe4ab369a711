// Unit tests for the common substrate: ids, units, Result, RNG, latency
// models.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace griphon {
namespace {

TEST(Ids, DefaultConstructedIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(static_cast<bool>(id));
}

TEST(Ids, ExplicitValueIsValid) {
  NodeId id{3};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 3u);
}

TEST(Ids, ComparesByValue) {
  EXPECT_EQ(NodeId{1}, NodeId{1});
  EXPECT_NE(NodeId{1}, NodeId{2});
  EXPECT_LT(NodeId{1}, NodeId{2});
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, LinkId>);
  static_assert(!std::is_same_v<ConnectionId, CustomerId>);
}

TEST(Ids, AllocatorIsMonotonic) {
  IdAllocator<ConnectionId> alloc;
  const auto a = alloc.next();
  const auto b = alloc.next();
  EXPECT_LT(a, b);
  EXPECT_EQ(alloc.issued(), 2u);
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_set<LinkId> set;
  set.insert(LinkId{1});
  set.insert(LinkId{1});
  set.insert(LinkId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Units, DataRateArithmetic) {
  const DataRate a = DataRate::gbps(10);
  const DataRate b = DataRate::gbps(2.5);
  EXPECT_EQ((a + b).in_gbps(), 12.5);
  EXPECT_EQ((a - b).in_gbps(), 7.5);
  EXPECT_EQ((b * 4).in_gbps(), 10.0);
  EXPECT_LT(b, a);
}

TEST(Units, RatesMatchStandards) {
  EXPECT_NEAR(rates::kOdu0.in_gbps(), 1.244, 0.001);
  EXPECT_NEAR(rates::kOdu2.in_gbps(), 10.037, 0.001);
  EXPECT_NEAR(rates::kSts1.in_gbps(), 0.0518, 0.0001);
  EXPECT_NEAR(rates::kOc12.in_gbps(), 0.622, 0.001);
}

TEST(Units, TransferTime) {
  // 1 GB over 1 Gbps = 8 seconds.
  const SimTime t = transfer_time(1'000'000'000, DataRate::gbps(1));
  EXPECT_NEAR(to_seconds(t), 8.0, 1e-6);
}

TEST(Units, TransferTimeZeroRateIsInfinite) {
  EXPECT_EQ(transfer_time(100, DataRate{}), SimTime::max());
}

TEST(Units, SimTimeConversions) {
  EXPECT_EQ(to_seconds(seconds(90)), 90.0);
  EXPECT_EQ(to_milliseconds(seconds(2)), 2000.0);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
  EXPECT_EQ(minutes(2), seconds(120));
  EXPECT_EQ(hours(1), minutes(60));
}

TEST(Units, DistanceAccumulates) {
  Distance d = Distance::km(100);
  d += Distance::km(50);
  EXPECT_EQ(d.in_km(), 150.0);
  EXPECT_LT(Distance::km(10), Distance::km(20));
}

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{Error{ErrorCode::kNotFound, "gone"}};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r{Error{ErrorCode::kBusy, "nope"}};
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Result, StatusDefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e{ErrorCode::kTimeout, "late"};
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.error().code(), ErrorCode::kTimeout);
}

TEST(Result, ErrorCodeNames) {
  EXPECT_EQ(to_string(ErrorCode::kNone), "ok");
  EXPECT_EQ(to_string(ErrorCode::kResourceExhausted), "resource-exhausted");
  EXPECT_EQ(to_string(ErrorCode::kUnreachable), "unreachable");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalTruncatedAtZero) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i)
    EXPECT_GE(rng.normal(0.1, 5.0), 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, LognormalMeanIsCalibrated) {
  Rng rng(9);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.lognormal(2.0, 0.5);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ForkIndependence) {
  Rng a(77);
  Rng child = a.fork();
  (void)child.uniform(0, 1);
  // Parent stays deterministic regardless of how much the child draws.
  Rng b(77);
  Rng child2 = b.fork();
  for (int i = 0; i < 5; ++i) (void)child2.uniform(0, 1);
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(LatencyModel, FixedIsExact) {
  Rng rng(1);
  const auto m = LatencyModel::fixed(milliseconds(250));
  EXPECT_EQ(m.sample(rng), milliseconds(250));
  EXPECT_EQ(m.mean(), milliseconds(250));
}

TEST(LatencyModel, NormalRespectsFloor) {
  Rng rng(1);
  const auto m =
      LatencyModel::normal(milliseconds(100), milliseconds(50),
                           milliseconds(200));
  for (int i = 0; i < 500; ++i)
    EXPECT_GE(m.sample(rng), milliseconds(100));
}

TEST(LatencyModel, MeanAccountsForFloor) {
  const auto m = LatencyModel::normal(seconds(1), seconds(2), milliseconds(1));
  EXPECT_EQ(m.mean(), seconds(3));
}

TEST(LatencyModel, ExponentialSamplesVary) {
  Rng rng(2);
  const auto m = LatencyModel::exponential(SimTime{}, seconds(1));
  std::set<SimTime> seen;
  for (int i = 0; i < 20; ++i) seen.insert(m.sample(rng));
  EXPECT_GT(seen.size(), 10u);
}

class LatencyMeanSweep
    : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LatencyMeanSweep, EmpiricalMeanTracksConfiguredMean) {
  const auto mean_ms = GetParam();
  Rng rng(42);
  const auto m = LatencyModel::normal(SimTime{}, milliseconds(mean_ms),
                                      milliseconds(mean_ms / 10));
  double sum = 0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) sum += to_milliseconds(m.sample(rng));
  EXPECT_NEAR(sum / kN, static_cast<double>(mean_ms),
              static_cast<double>(mean_ms) * 0.05);
}

INSTANTIATE_TEST_SUITE_P(Means, LatencyMeanSweep,
                         ::testing::Values(100, 800, 1600, 9000, 12000));

// --- FlatMap ------------------------------------------------------------------

TEST(FlatMap, InsertFindEraseClear) {
  FlatMap<std::string> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  const auto [v, added] = m.try_emplace(7, "seven");
  EXPECT_TRUE(added);
  EXPECT_EQ(*v, "seven");
  const auto [again, added_again] = m.try_emplace(7, "other");
  EXPECT_FALSE(added_again);
  EXPECT_EQ(*again, "seven");
  m.try_emplace(0, "zero");  // key 0 is an ordinary key
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), "zero");
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.contains(0));
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.contains(0));
}

TEST(FlatMap, MatchesOrderedMapUnderRandomChurn) {
  // Keys from a small range collide and form long probe runs, so erases
  // exercise the backward shift across wrap-around.
  FlatMap<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const auto key = static_cast<std::uint64_t>(rng.uniform(0.0, 300.0));
    if (rng.chance(0.55)) {
      const std::uint64_t value = key * 3 + 1;
      const bool added = m.try_emplace(key, value).second;
      EXPECT_EQ(added, oracle.emplace(key, value).second);
    } else {
      EXPECT_EQ(m.erase(key), oracle.erase(key) == 1);
    }
    ASSERT_EQ(m.size(), oracle.size());
    if (step % 97 == 0) {
      for (std::uint64_t k = 0; k < 300; ++k) {
        const std::uint64_t* got = m.find(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(got != nullptr, it != oracle.end()) << "key " << k;
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
}

}  // namespace
}  // namespace griphon
