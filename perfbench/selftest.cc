// Tests for the benchmark's own code: the percentile rule, span self-time
// arithmetic, op-stream determinism, and the checks that must catch a
// corrupted value or a lost acknowledged write.
#include <gtest/gtest.h>

#include <set>

#include "harness.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(10).has_value());   // p50 leaves only 5 beyond
  EXPECT_EQ(tail_percentile(20), 50.0);            // 10 beyond p50
  EXPECT_EQ(tail_percentile(199), 90.0);           // p95 leaves 9 beyond
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);           // p99 leaves 9 beyond
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10'000), 99.9);
  EXPECT_EQ(tail_percentile(100'000), 99.99);
}

TEST(PercentileRule, SummaryReportsP99OnlyWhenSupported) {
  LatencyHistogram h;
  for (u64 i = 1; i <= 500; ++i) {
    h.record(i * 1000);
  }
  LatencySummary s = summarize(h);
  EXPECT_EQ(s.samples, 500u);
  EXPECT_EQ(s.tail_pct, 95.0);  // 500 samples cannot support p99
  EXPECT_NEAR(s.p99_us, 475.0, 1.0);
  EXPECT_NEAR(s.p50_us, 250.0, 1.0);
  for (u64 i = 501; i <= 2000; ++i) {
    h.record(i * 1000);
  }
  s = summarize(h);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.rule_pct, 99.0);
  EXPECT_NEAR(s.p99_us, 1980.0, 3.0);  // 0.1% buckets above 2 us
}

TEST(PercentileRule, WindowedFiguresAreMediansOverWindows) {
  WindowedLatency w;
  LatencyHistogram h;
  for (u64 level : {10'000u, 30'000u, 20'000u}) {  // one window per level
    for (int i = 0; i < 2000; ++i) {
      h.record(level);
    }
    w.close_window(h);
    EXPECT_EQ(h.count(), 0u);  // cleared for the next window
  }
  w.close_window(h);  // an empty window is skipped
  const LatencySummary s = w.summary();
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.samples, 6000u);
  EXPECT_EQ(s.window_samples_min, 2000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_NEAR(s.p50_us, 20.0, 0.05);  // the middle window, not the pooled p50
  EXPECT_NEAR(s.p99_us, 20.0, 0.05);
  EXPECT_EQ(w.pooled().count(), 6000u);

  // A window too small for p99 hands the tail to the pooled histogram.
  for (int i = 0; i < 50; ++i) {
    h.record(40'000);
  }
  w.close_window(h);
  const LatencySummary small = w.summary();
  EXPECT_EQ(small.windows, 4u);
  EXPECT_EQ(small.tail_pct, 99.0);
  EXPECT_NEAR(small.p99_us, 30.0, 0.05);  // pooled: 60 samples beyond p99, 50 at 40 us
  EXPECT_NEAR(small.p50_us, 25.0, 0.05);  // median of 10, 20, 30, 40
}

TEST(LatencyHistogram, ExactBelowTwoMicrosecondsAndInterpolated) {
  LatencyHistogram h;
  for (int i = 0; i < 4; ++i) {
    h.record(100);
    h.record(101);
  }
  // 8 samples: four at 100 ns, four at 101 ns; the median sits where the
  // two one-nanosecond buckets meet.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 101.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 100.5);
  LatencyHistogram big;
  big.record(5'000'000'000ull);
  EXPECT_NEAR(big.quantile(0.5), 5e9, 5e9 * 0.002);
}

TEST(SpanLog, SelfTimeOfServeExcludesNestedPumpServes) {
  SpanLog log({"serve", "pump"}, 16);
  log.open(0, 0, 1000);   // serve_once
  log.open(1, 0, 1010);   //   pump serve (replica ack wait)
  log.open(1, 0, 1015);   //     a pump serve nested in the pump
  log.close(1025);
  log.close(1040);
  log.open(1, 0, 1050);   //   second pump serve
  log.close(1070);
  log.close(1100);
  log.open(0, 7, 2000);   // next serve, no pump
  log.close(2005);

  const auto& t = log.totals();
  EXPECT_EQ(t[0].count, 2u);
  EXPECT_EQ(t[0].busy_ns, 105u);
  EXPECT_EQ(t[0].self_ns, 100u - 30u - 20u + 5u);
  EXPECT_EQ(t[1].count, 3u);
  EXPECT_EQ(t[1].busy_ns, 30u + 10u + 20u);
  EXPECT_EQ(t[1].self_ns, (30u - 10u) + 10u + 20u);
  // Self times of all layers sum to the root spans' wall time.
  EXPECT_EQ(log.root_ns(), 105u);
  EXPECT_EQ(t[0].self_ns + t[1].self_ns, log.root_ns());

  const auto& kept = log.kept();
  ASSERT_EQ(kept.size(), 5u);
  EXPECT_EQ(kept[0].parent, 2u);  // innermost pump closes first; parent = outer pump
  EXPECT_EQ(kept[1].parent, 1u);
  EXPECT_EQ(kept[3].id, 1u);
  EXPECT_EQ(kept[3].parent, 0u);
  EXPECT_EQ(kept[4].op, 7u);
}

TEST(SpanLog, KeepsAtMostTheCapButTotalsEverySpan) {
  SpanLog log({"x"}, 2);
  for (u64 i = 0; i < 5; ++i) {
    log.open(0, i, i * 10);
    log.close(i * 10 + 3);
  }
  EXPECT_EQ(log.kept().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_EQ(log.totals()[0].count, 5u);
  EXPECT_EQ(log.totals()[0].self_ns, 15u);
}

TEST(OpStreams, SameSeedSameStream) {
  const KvMix mix{4096, 50, 20, 80};
  KvOpStream a(42, 3, mix), b(42, 3, mix), other_seed(43, 3, mix), other_client(42, 4, mix);
  bool seed_differs = false, client_differs = false;
  u32 hot = 0, gets = 0;
  for (int i = 0; i < 10'000; ++i) {
    const KvOp x = a.next();
    ASSERT_EQ(x, b.next());
    seed_differs |= !(x == other_seed.next());
    client_differs |= !(x == other_client.next());
    hot += x.key < 4096 / 5 ? 1 : 0;
    gets += x.kind == KvKind::kGet ? 1 : 0;
    ASSERT_LT(x.key, 4096u);
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(client_differs);
  EXPECT_NEAR(hot / 10'000.0, 0.8, 0.02);
  EXPECT_NEAR(gets / 10'000.0, 0.5, 0.02);

  VmOpStream v1(9, 1, 1024, 8191), v2(9, 1, 1024, 8191);
  for (int i = 0; i < 5000; ++i) {
    const VmOp x = v1.next();
    ASSERT_EQ(x, v2.next());
    ASSERT_EQ(x.page, static_cast<u32>(i % 1024));
    ASSERT_LT(x.frame, 8191u);
  }
}

TEST(ValueValidator, RejectsEveryFlippedByte) {
  for (usize bytes : {usize{128}, usize{4096}}) {
    const std::vector<u8> v = make_value(5, "k17", 9, bytes);
    ASSERT_EQ(v.size(), bytes);
    ASSERT_EQ(validate_value(5, "k17", v, bytes), 9u);
    for (usize i = 0; i < v.size(); ++i) {
      std::vector<u8> bad = v;
      bad[i] ^= 0x01;
      ASSERT_FALSE(validate_value(5, "k17", bad, bytes).has_value()) << "byte " << i;
    }
  }
}

TEST(ValueValidator, RejectsWrongKeyLengthAndSeed) {
  const std::vector<u8> v = make_value(5, "k17", 9, 128);
  EXPECT_FALSE(validate_value(5, "k18", v, 128).has_value());
  EXPECT_FALSE(validate_value(6, "k17", v, 128).has_value());  // another run's bytes
  std::vector<u8> shorter(v.begin(), v.end() - 1);
  EXPECT_FALSE(validate_value(5, "k17", shorter, 128).has_value());
}

TEST(KvChecks, ReadBackAndCrashPassOnAHealthyCluster) {
  EXPECT_TRUE(kv_damage_probe(KvDamage::kNone, 3).empty());
}

TEST(KvChecks, LostAckedWriteIsCaught) {
  auto errors = kv_damage_probe(KvDamage::kLostAckedWrite, 3);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("read-back"), std::string::npos) << errors[0];
}

TEST(KvChecks, DeletedOwnerCopyIsCaught) {
  auto errors = kv_damage_probe(KvDamage::kDeletedCopy, 4);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("read-back"), std::string::npos) << errors[0];
}

TEST(MetricTables, NamesAreUniqueAndEveryRunReportsTheWholeTable) {
  std::set<std::string> seen;
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& m : *table) {
      EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
  }
  RunResult res;
  auto metrics = per_layer_metrics({{"nr.combines", 3}}, res);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(metrics.size(), kPerLayer.size());
  end_to_end_metrics({{"setup_s", 1}}, res);
  EXPECT_FALSE(res.correct);  // an end-to-end metric left unmeasured fails the run
  RunResult typo;
  per_layer_metrics({{"nr.combine", 3}}, typo);
  EXPECT_FALSE(typo.correct);
}

}  // namespace
}  // namespace perfbench
