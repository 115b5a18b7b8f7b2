#include "harness.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace perfbench {
namespace {

TEST(NearestRankTest, MatchesTheDefinition) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(NearestRank(v, 0), 1);
  EXPECT_EQ(NearestRank(v, 20), 1);
  EXPECT_EQ(NearestRank(v, 21), 2);
  EXPECT_EQ(NearestRank(v, 50), 3);
  EXPECT_EQ(NearestRank(v, 100), 5);
  EXPECT_EQ(Median({7}), 7);
  EXPECT_EQ(NearestRank({}, 50), 0);
}

TEST(NearestRankTest, P99NeedsAHundredSamplesToDropTheMax) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 99), 99);
  v.pop_back();
  EXPECT_EQ(NearestRank(v, 99), 99);  // ceil(0.99 * 99) = 99: the max
}

TEST(WindowedPercentileTest, MedianOfPerWindowPercentiles) {
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(i);
  }
  v[50] = 1000;  // one stall in the first window
  v[450] = 2000;  // one in the last
  EXPECT_EQ(NearestRank(v, 99), 100);
  // Windows 0 and 4 see their stall at p99; the median window does not.
  EXPECT_EQ(WindowedPercentile(v, 100, 100), 100);
  EXPECT_EQ(WindowedPercentile(v, 100, 99), 99);
  // A trailing partial window is dropped; a lone short one is used.
  v.push_back(5000);
  EXPECT_EQ(WindowedPercentile(v, 100, 100), 100);
  EXPECT_EQ(WindowedPercentile({3, 1, 2}, 100, 100), 3);
}

TEST(ZipfKeysTest, SameSeedSameStream) {
  ZipfKeys a(1000, 0.99, 7);
  ZipfKeys b(1000, 0.99, 7);
  ZipfKeys c(1000, 0.99, 8);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = a.Next();
    ASSERT_EQ(x, b.Next());
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 1000);
    differs = differs || x != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(ZipfKeysTest, HotKeyFollowsThePermutationAndTheSkew) {
  ZipfKeys keys(10000, 0.99, 3);
  std::map<int64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[keys.Next()];
  // P(rank 0) = 1 / H(10000, 0.99), about 0.10.
  const double hot = static_cast<double>(counts[keys.KeyOfRank(0)]) / n;
  EXPECT_NEAR(hot, 0.10, 0.01);
  EXPECT_GT(counts[keys.KeyOfRank(0)], counts[keys.KeyOfRank(1)]);
  EXPECT_GT(counts[keys.KeyOfRank(1)], counts[keys.KeyOfRank(100)]);
  // The hottest keys are scattered, not 0, 1, 2, ...
  EXPECT_FALSE(keys.KeyOfRank(0) == 0 && keys.KeyOfRank(1) == 1);
}

TEST(ZipfKeysTest, ThetaZeroIsUniform) {
  ZipfKeys keys(4, 0.0, 1);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 40000; ++i) ++counts[keys.Next()];
  for (const auto& [key, count] : counts) EXPECT_NEAR(count, 10000, 500);
}

TEST(OpenLoopTest, DueTimesFollowTheRate) {
  OpenLoop loop(100.0, 1000.0);
  EXPECT_DOUBLE_EQ(loop.DueTime(0), 100.0);
  EXPECT_DOUBLE_EQ(loop.DueTime(500), 100.5);
  EXPECT_EQ(loop.DueBy(99.0), 0);
  EXPECT_EQ(loop.DueBy(100.0), 1);
  EXPECT_EQ(loop.DueBy(100.0105), 11);
}

TEST(OpenLoopTest, LatencyCountsFromTheDueTimeAndLatenessIsRecorded) {
  OpenLoop loop(0.0, 100.0);  // one request every 10 ms
  // Request 0 goes out on time; request 1 is sent 30 ms late (a stall).
  loop.Sent(0, 0.0);
  loop.Sent(1, 0.040);
  EXPECT_DOUBLE_EQ(loop.Completed(0, 0.002), 0.002);
  // The stall is charged to request 1: latency from its due time (10 ms).
  EXPECT_NEAR(loop.Completed(1, 0.041), 0.031, 1e-12);
  EXPECT_NEAR(loop.lateness_s()[1], 0.030, 1e-12);
  EXPECT_EQ(loop.lateness_s()[0], 0.0);
}

TEST(OpenLoopTest, EarlySendsAreNotNegativeLateness) {
  OpenLoop loop(1.0, 10.0);
  loop.Sent(3, 1.0);  // due at 1.3
  EXPECT_EQ(loop.lateness_s()[0], 0.0);
}

TEST(MetricNameTest, AcceptsOnlyTheAllowedAlphabet) {
  EXPECT_TRUE(ValidMetricName("latency_ms"));
  EXPECT_TRUE(ValidMetricName("serve.handle_us_p99"));
  EXPECT_TRUE(ValidMetricName("9lives-x.y_z"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_lead"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName("quote\"d"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricsTest, JsonKeepsEveryDigitAndUnit) {
  Metrics m;
  m.Set("b_s", 0.1234567890123, "s");
  m.Set("a", 3, "count");
  EXPECT_EQ(m.ToJson(),
            "{\"a\": {\"value\": 3, \"unit\": \"count\"}, "
            "\"b_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}");
}

TEST(MetricsDeathTest, RejectsBadAndDuplicateNames) {
  Metrics m;
  m.Set("x", 1, "s");
  EXPECT_DEATH(m.Set("x", 2, "s"), "duplicate");
  EXPECT_DEATH(m.Set("bad name", 2, "s"), "bad");
}

TEST(TracerTest, SelfTimeSubtractsChildren) {
  Tracer t;
  EXPECT_EQ(t.Begin("core.fit"), -1);  // disabled: a no-op
  EXPECT_TRUE(t.spans().empty());
  t.Enable("run");
  const int64_t root = t.Begin("core.fit");
  t.Add("graph.sample", 0.0, 0.0);
  const int64_t child = t.Begin("graph.build");
  t.End(child);
  t.End(root);
  const auto& s = t.spans();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, root);
  EXPECT_EQ(s[2].parent, root);
  const double root_s = s[0].end - s[0].start;
  const double child_s = s[2].end - s[2].start;
  const auto self = t.SelfSecondsByLayer(0.0);
  EXPECT_NEAR(self.at("graph"), child_s, 1e-12);
  EXPECT_NEAR(self.at("core"), root_s - child_s, 1e-12);
  // Spans that started before `since` are left out.
  EXPECT_TRUE(t.SelfSecondsByLayer(s[2].end + 1.0).empty());
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
}

}  // namespace
}  // namespace perfbench
