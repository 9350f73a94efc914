// Tests of the observability layer: registry semantics, histogram
// correctness vs a sorted-vector oracle, phase profiling, JSON/CSV
// export, trace-event output, bench snapshot schema round-trip, and —
// critically — that instrumentation never changes numerical results
// (same seed => identical samples).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/io/json.hpp"
#include "sttram/obs/obs.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/parser.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/monte_carlo.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

/// Every test starts and ends with telemetry fully off and zeroed, so
/// tests are order-independent and leave no global state behind.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { quiesce(); }
  void TearDown() override { quiesce(); }

  static void quiesce() {
    obs::set_metrics_enabled(false);
    obs::set_profiling_enabled(false);
    obs::Registry::instance().reset();
    obs::Profiler::instance().reset();
    obs::TraceRecorder::instance().stop();
    obs::TraceRecorder::instance().clear();
  }
};

/// Exact nearest-rank quantile of a sorted sample vector — the oracle
/// the histogram approximation is checked against.
double oracle_quantile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

TEST_F(ObsTest, CounterSemanticsAndStableHandles) {
  auto& registry = obs::Registry::instance();
  obs::Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // The same name resolves to the same object.
  EXPECT_EQ(&registry.counter("test.counter"), &c);
  // reset() zeroes the value but keeps the handle valid.
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);
  EXPECT_EQ(registry.counter("test.counter").value(), 2u);
}

TEST_F(ObsTest, MacrosAreInertWhenDisabled) {
  auto& registry = obs::Registry::instance();
  for (int k = 0; k < 3; ++k) STTRAM_OBS_COUNT("test.macro_counter");
  EXPECT_EQ(registry.counter("test.macro_counter").value(), 0u);
  obs::set_metrics_enabled(true);
  for (int k = 0; k < 3; ++k) STTRAM_OBS_COUNT("test.macro_counter");
  EXPECT_EQ(registry.counter("test.macro_counter").value(), 3u);
}

TEST_F(ObsTest, TimerAndGauge) {
  auto& registry = obs::Registry::instance();
  obs::Timer& t = registry.timer("test.timer");
  t.record(1.0);
  t.record(3.0);
  const RunningStats s = t.snapshot();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  registry.gauge("test.gauge").set(42.5);
  EXPECT_DOUBLE_EQ(registry.gauge("test.gauge").value(), 42.5);
}

TEST_F(ObsTest, CountersAreThreadSafe) {
  obs::Counter& c = obs::Registry::instance().counter("test.mt_counter");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&c] {
      for (int k = 0; k < kIncrements; ++k) c.increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, JsonExportCarriesSchemaAndValues) {
  auto& registry = obs::Registry::instance();
  registry.counter("test.json_counter").add(7);
  registry.timer("test.json_timer").record(0.5);
  const std::string dump = registry.to_json().dump(2);
  // Live values.
  EXPECT_NE(dump.find("\"test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(dump.find("\"test.json_timer\""), std::string::npos);
  // Pre-registered solver/MC schema is always present, even untouched.
  EXPECT_NE(dump.find("\"spice.newton.iterations\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"mc.trials\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"engine.requests\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"gauges\""), std::string::npos);
  EXPECT_NE(dump.find("\"timers\""), std::string::npos);
}

TEST_F(ObsTest, CsvExportRoundTrip) {
  auto& registry = obs::Registry::instance();
  registry.counter("test.csv_counter").add(9);
  std::ostringstream out;
  registry.write_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "kind,name,count,value,mean,stddev,min,max,p50,p90,p99,p999");
  bool found = false;
  bool found_histogram = false;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    if (line == "counter,test.csv_counter,9,9,,,,,,,,") found = true;
    if (line.rfind("histogram,mc.trial_seconds,", 0) == 0) {
      found_histogram = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(found_histogram);
  // One row per registered metric (pre-registered schema included).
  EXPECT_EQ(rows, registry.counters().size() + registry.gauges().size() +
                      registry.timers().size() +
                      registry.histograms().size());
}

TEST_F(ObsTest, TraceSpansProduceValidChromeTraceJson) {
  auto& recorder = obs::TraceRecorder::instance();
  {
    // Inactive recorder: spans are no-ops.
    obs::TraceSpan span("ignored", "test");
  }
  EXPECT_EQ(recorder.event_count(), 0u);

  recorder.start();
  {
    obs::TraceSpan outer("outer", "test");
    { STTRAM_TRACE_SPAN("inner", "test"); }
  }
  recorder.stop();
  EXPECT_EQ(recorder.event_count(), 2u);

  std::ostringstream out;
  recorder.write(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\""), std::string::npos);
  // Events survive stop() until the next start()/clear().
  recorder.start();
  EXPECT_EQ(recorder.event_count(), 0u);
  recorder.stop();
}

TEST_F(ObsTest, RunMonteCarloIsInvariantUnderInstrumentation) {
  const auto trial = std::function<double(Xoshiro256&)>(
      [](Xoshiro256& rng) { return sample_normal(rng, 1.0, 0.25); });

  const std::vector<double> baseline = run_monte_carlo(123, 500, trial);
  obs::set_metrics_enabled(true);
  obs::TraceRecorder::instance().start();
  const std::vector<double> instrumented = run_monte_carlo(123, 500, trial);
  obs::TraceRecorder::instance().stop();

  ASSERT_EQ(baseline.size(), instrumented.size());
  for (std::size_t k = 0; k < baseline.size(); ++k) {
    EXPECT_EQ(baseline[k], instrumented[k]) << "trial " << k;
  }
  // ...and the run was actually measured: per-trial solve times land in
  // the mc.trial_seconds histogram.
  EXPECT_EQ(obs::Registry::instance().counter("mc.trials").value(), 500u);
  EXPECT_EQ(
      obs::Registry::instance().histogram("mc.trial_seconds").count(),
      500u);
}

TEST_F(ObsTest, MonteCarloStatsMatchOnVsOff) {
  const auto trial = std::function<double(Xoshiro256&)>(
      [](Xoshiro256& rng) { return rng.next_double(); });
  const RunningStats off = monte_carlo_stats(7, 300, trial);
  obs::set_metrics_enabled(true);
  const RunningStats on = monte_carlo_stats(7, 300, trial);
  EXPECT_EQ(off.count(), on.count());
  EXPECT_EQ(off.mean(), on.mean());
  EXPECT_EQ(off.variance(), on.variance());
  EXPECT_EQ(off.min(), on.min());
  EXPECT_EQ(off.max(), on.max());
}

TEST_F(ObsTest, YieldExperimentIsInvariantUnderInstrumentation) {
  YieldConfig cfg;
  cfg.geometry = {8, 8};
  const YieldResult off = run_yield_experiment(cfg);
  obs::set_metrics_enabled(true);
  obs::TraceRecorder::instance().start();
  const YieldResult on = run_yield_experiment(cfg);
  obs::TraceRecorder::instance().stop();

  for (const auto& pair :
       {std::pair{&off.conventional, &on.conventional},
        std::pair{&off.reference_cell, &on.reference_cell},
        std::pair{&off.destructive, &on.destructive},
        std::pair{&off.nondestructive, &on.nondestructive}}) {
    EXPECT_EQ(pair.first->bits, pair.second->bits);
    EXPECT_EQ(pair.first->failures, pair.second->failures);
    EXPECT_EQ(pair.first->sm0_stats.mean(), pair.second->sm0_stats.mean());
    EXPECT_EQ(pair.first->sm1_stats.mean(), pair.second->sm1_stats.mean());
  }
  EXPECT_EQ(off.shared_v_ref.value(), on.shared_v_ref.value());
  // The instrumented run recorded its work.
  EXPECT_EQ(
      obs::Registry::instance().counter("yield.margin_evaluations").value(),
      4u * 64u);

  // Three pipeline windows recorded by chunk 0 while 4 threads sample:
  // the counters still total every evaluation and every failure.
  obs::Registry::instance().reset();
  cfg.geometry = {129, 257};
  engine::ThreadPool pool(4);
  const YieldResult pooled = run_yield_experiment(cfg, &pool);
  const std::size_t failures =
      pooled.conventional.failures + pooled.reference_cell.failures +
      pooled.destructive.failures + pooled.nondestructive.failures;
  EXPECT_GT(failures, 0u);
  EXPECT_EQ(
      obs::Registry::instance().counter("yield.margin_evaluations").value(),
      4u * 129u * 257u);
  EXPECT_EQ(
      obs::Registry::instance().counter("yield.margin_failures").value(),
      failures);
}

TEST_F(ObsTest, TrafficRunIsInvariantUnderInstrumentation) {
  engine::TrafficConfig cfg;
  cfg.requests = 5000;
  cfg.banks = 2;
  const engine::TrafficReport off = engine::run_traffic(cfg);
  obs::set_metrics_enabled(true);
  obs::TraceRecorder::instance().start();
  const engine::TrafficReport on = engine::run_traffic(cfg);
  obs::TraceRecorder::instance().stop();

  EXPECT_EQ(off.requests, on.requests);
  EXPECT_EQ(off.reads, on.reads);
  EXPECT_EQ(off.writes, on.writes);
  EXPECT_EQ(off.mean_latency.value(), on.mean_latency.value());
  EXPECT_EQ(off.p50_latency.value(), on.p50_latency.value());
  EXPECT_EQ(off.p99_latency.value(), on.p99_latency.value());
  EXPECT_EQ(off.p999_latency.value(), on.p999_latency.value());
  EXPECT_EQ(off.max_latency.value(), on.max_latency.value());
  EXPECT_EQ(off.makespan.value(), on.makespan.value());
  EXPECT_EQ(off.sustained_bandwidth_mbps, on.sustained_bandwidth_mbps);
  EXPECT_EQ(off.avg_bank_utilization, on.avg_bank_utilization);
  EXPECT_EQ(off.peak_queue_depth, on.peak_queue_depth);
  EXPECT_EQ(off.total_energy.value(), on.total_energy.value());
  // The result histograms are identical bucket-for-bucket...
  EXPECT_EQ(off.latency_hist.count(), on.latency_hist.count());
  for (std::size_t k = 0; k < obs::HistogramLayout::kBucketCount; ++k) {
    EXPECT_EQ(off.latency_hist.bucket_count_at(k),
              on.latency_hist.bucket_count_at(k));
  }
  // ...and the instrumented run recorded its work, including the
  // registry latency histograms.
  auto& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("engine.requests").value(), 5000u);
  EXPECT_EQ(registry.counter("engine.reads").value(), on.reads);
  EXPECT_EQ(registry.counter("engine.writes").value(), on.writes);
  EXPECT_EQ(registry.timer("engine.sim_seconds").snapshot().count(), 1u);
  EXPECT_EQ(registry.histogram("engine.latency_seconds").count(), 5000u);
  EXPECT_EQ(registry.histogram("engine.read_latency_seconds").count(),
            on.reads);
  EXPECT_EQ(registry.histogram("engine.write_latency_seconds").count(),
            on.writes);
  EXPECT_EQ(registry.gauge("engine.queue_depth").value(),
            static_cast<double>(on.peak_queue_depth));
}

TEST_F(ObsTest, ProgressCallbackReportsCompletion) {
  MonteCarloOptions options;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.progress_interval = 10;
  options.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_done = done;
    EXPECT_EQ(total, 95u);
  };
  const auto trial = std::function<double(Xoshiro256&)>(
      [](Xoshiro256& rng) { return rng.next_double(); });
  run_monte_carlo(1, 95, trial, options);
  EXPECT_EQ(calls, 10u);  // 9 stride hits + the final trial
  EXPECT_EQ(last_done, 95u);
}

TEST_F(ObsTest, HistogramQuantilesMatchSortedVectorOracle) {
  // Samples spanning several decades — the regime log bucketing is for.
  Xoshiro256 rng(42);
  obs::Histogram hist;
  std::vector<double> samples;
  samples.reserve(20000);
  for (int k = 0; k < 20000; ++k) {
    const double v = std::exp(sample_normal(rng, -9.0, 2.0));  // ~e^-9 s
    samples.push_back(v);
    hist.record(v);
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  // Count/sum/min/max/mean are tracked exactly.
  EXPECT_EQ(hist.count(), samples.size());
  EXPECT_EQ(hist.min(), sorted.front());
  EXPECT_EQ(hist.max(), sorted.back());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  EXPECT_DOUBLE_EQ(hist.mean(), sum / static_cast<double>(samples.size()));

  // Quantiles are bucket-midpoint approximations: worst-case relative
  // error is half a sub-bucket width, ~1/64. Allow 2/64.
  for (const double q : {0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const double exact = oracle_quantile(sorted, q);
    const double approx = hist.quantile(q);
    EXPECT_NEAR(approx, exact, exact * (2.0 / 64.0))
        << "quantile " << q;
  }
  // q=0 / q=1 are clamped to the exact extremes.
  EXPECT_EQ(hist.quantile(0.0), sorted.front());
  EXPECT_EQ(hist.quantile(1.0), sorted.back());
}

TEST_F(ObsTest, HistogramMergeEqualsCombinedRecording) {
  Xoshiro256 rng(7);
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram combined;
  for (int k = 0; k < 5000; ++k) {
    const double v = std::exp(sample_normal(rng, -8.0, 1.5));
    if (k % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  // Sums differ only by float addition order.
  EXPECT_NEAR(a.sum(), combined.sum(), 1e-12 * combined.sum());
  for (std::size_t k = 0; k < obs::HistogramLayout::kBucketCount; ++k) {
    EXPECT_EQ(a.bucket_count_at(k), combined.bucket_count_at(k));
  }
  EXPECT_EQ(a.quantile(0.99), combined.quantile(0.99));
}

TEST_F(ObsTest, HistogramHandlesDegenerateSamples) {
  obs::Histogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // empty
  hist.record(0.0);
  hist.record(-1.0);
  hist.record(std::nan(""));
  // Degenerate samples land in bucket 0 and never crash the record path.
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.bucket_count_at(0), 3u);
  // Out-of-range values land in the overflow bucket.
  hist.record(1e30);
  EXPECT_EQ(
      hist.bucket_count_at(obs::HistogramLayout::kBucketCount - 1), 1u);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
}

TEST_F(ObsTest, HistogramMetricIsThreadSafeAndSnapshotsExactly) {
  obs::HistogramMetric& metric =
      obs::Registry::instance().histogram("test.mt_hist");
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&metric, w] {
      Xoshiro256 rng(static_cast<std::uint64_t>(w) + 1);
      for (int k = 0; k < kRecords; ++k) {
        metric.record(1e-9 * (1.0 + rng.next_double()));
      }
    });
  }
  for (auto& w : workers) w.join();
  const obs::Histogram snap = metric.snapshot();
  EXPECT_EQ(snap.count(),
            static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_GE(snap.min(), 1e-9);
  EXPECT_LE(snap.max(), 2e-9);
  std::uint64_t bucket_total = 0;
  for (std::size_t k = 0; k < obs::HistogramLayout::kBucketCount; ++k) {
    bucket_total += snap.bucket_count_at(k);
  }
  EXPECT_EQ(bucket_total, snap.count());
}

TEST_F(ObsTest, RegistryRejectsBadMetricNames) {
  auto& registry = obs::Registry::instance();
  EXPECT_THROW(registry.counter(""), InvalidArgument);
  EXPECT_THROW(registry.counter("Bad.Name"), InvalidArgument);
  EXPECT_THROW(registry.gauge("has space"), InvalidArgument);
  EXPECT_THROW(registry.timer("dash-name"), InvalidArgument);
  EXPECT_THROW(registry.histogram("semi;colon"), InvalidArgument);
  // Valid character set passes.
  EXPECT_NO_THROW(registry.counter("ok.name_09"));
  // Free-form labels normalize into the valid alphabet.
  EXPECT_EQ(obs::normalize_metric_name("read1(I1,SLT1)"), "read1_i1_slt1");
  EXPECT_EQ(obs::normalize_metric_name("sense+latch(SenEn)"),
            "sense_latch_senen");
  EXPECT_EQ(obs::normalize_metric_name("__weird--Name__"), "weird_name");
  EXPECT_NO_THROW(
      registry.timer(obs::normalize_metric_name("Write-Back Phase")));
}

TEST_F(ObsTest, RegistryRejectsCrossKindNameReuse) {
  auto& registry = obs::Registry::instance();
  registry.counter("test.kind_clash");
  EXPECT_THROW(registry.gauge("test.kind_clash"), InvalidArgument);
  EXPECT_THROW(registry.timer("test.kind_clash"), InvalidArgument);
  EXPECT_THROW(registry.histogram("test.kind_clash"), InvalidArgument);
  // Same kind is fine (it is the same metric).
  EXPECT_NO_THROW(registry.counter("test.kind_clash"));
  // The pre-registered mc.trial_seconds histogram cannot be shadowed by
  // a timer of the same name.
  EXPECT_THROW(registry.timer("mc.trial_seconds"), InvalidArgument);
}

TEST_F(ObsTest, ProfileScopeIsInertWhenDisabled) {
  {
    STTRAM_PROFILE_SCOPE("test.disabled_phase");
  }
  EXPECT_TRUE(obs::Profiler::instance().report().empty());
}

TEST_F(ObsTest, ProfileScopeAttributesSelfAndTotalTime) {
  obs::set_profiling_enabled(true);
  {
    obs::ProfileScope outer("test.outer");
    {
      obs::ProfileScope inner("test.inner");
      volatile double sink = 0.0;
      for (int k = 0; k < 100000; ++k) sink = sink + 1.0;
    }
  }
  obs::set_profiling_enabled(false);
  const auto rows = obs::Profiler::instance().report();
  ASSERT_EQ(rows.size(), 2u);
  const auto find = [&rows](const std::string& name) {
    for (const auto& r : rows) {
      if (r.name == name) return r;
    }
    return obs::PhaseStats{};
  };
  const obs::PhaseStats outer = find("test.outer");
  const obs::PhaseStats inner = find("test.inner");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  // The child's total is excluded from the parent's self time.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_LE(outer.self_seconds, outer.total_seconds - inner.total_seconds +
                                    1e-9);
  // A leaf's self time is its total time.
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.total_seconds);
}

TEST_F(ObsTest, ProfileScopeNestsIndependentlyAcrossThreads) {
  obs::set_profiling_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([] {
      for (int k = 0; k < kIterations; ++k) {
        obs::ProfileScope outer("test.thread_outer");
        obs::ProfileScope inner("test.thread_inner");
      }
    });
  }
  for (auto& w : workers) w.join();
  obs::set_profiling_enabled(false);
  const auto rows = obs::Profiler::instance().report();
  std::uint64_t outer_calls = 0;
  std::uint64_t inner_calls = 0;
  for (const auto& r : rows) {
    if (r.name == "test.thread_outer") outer_calls = r.calls;
    if (r.name == "test.thread_inner") inner_calls = r.calls;
  }
  // Per-thread stacks: every scope pairs with its own thread's parent,
  // so counts are exact despite concurrent nesting.
  EXPECT_EQ(outer_calls,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(inner_calls,
            static_cast<std::uint64_t>(kThreads) * kIterations);
}

TEST_F(ObsTest, ProfileScopesEmitTraceSpansWhenRecorderActive) {
  obs::set_profiling_enabled(true);
  obs::TraceRecorder::instance().start();
  {
    STTRAM_PROFILE_SCOPE("test.traced_phase");
  }
  obs::TraceRecorder::instance().stop();
  obs::set_profiling_enabled(false);
  std::ostringstream out;
  obs::TraceRecorder::instance().write(out);
  EXPECT_NE(out.str().find("\"name\": \"test.traced_phase\""),
            std::string::npos);
}

TEST_F(ObsTest, TrafficRunIsInvariantUnderProfiling) {
  engine::TrafficConfig cfg;
  cfg.requests = 2000;
  const engine::TrafficReport off = engine::run_traffic(cfg);
  obs::set_profiling_enabled(true);
  const engine::TrafficReport on = engine::run_traffic(cfg);
  obs::set_profiling_enabled(false);
  EXPECT_EQ(off.mean_latency.value(), on.mean_latency.value());
  EXPECT_EQ(off.p999_latency.value(), on.p999_latency.value());
  EXPECT_EQ(off.makespan.value(), on.makespan.value());
  // The profiled run attributed its phases.
  const auto rows = obs::Profiler::instance().report();
  bool saw_simulate = false;
  for (const auto& r : rows) {
    if (r.name == "traffic.simulate") saw_simulate = true;
  }
  EXPECT_TRUE(saw_simulate);
}

TEST_F(ObsTest, BenchSnapshotJsonRoundTrip) {
  obs::set_profiling_enabled(true);
  {
    STTRAM_PROFILE_SCOPE("test.snapshot_phase");
  }
  obs::set_profiling_enabled(false);

  obs::BenchSnapshot snap;
  snap.bench = "unit";
  snap.git_sha = "abc1234";
  snap.build_type = "Release";
  snap.compiler = "GNU 13";
  snap.threads = 8;
  snap.add_metric("throughput", 1.25e6, "req/s", true);
  snap.add_metric("wall_seconds", 0.75, "s", false);
  obs::Histogram hist;
  Xoshiro256 rng(3);
  for (int k = 0; k < 1000; ++k) {
    hist.record(1e-8 * (1.0 + rng.next_double()));
  }
  snap.add_histogram("latency_seconds", hist, "s");
  snap.capture_profile();
  ASSERT_FALSE(snap.profile.empty());

  const std::string text = snap.to_json().dump(2);
  const obs::BenchSnapshot back =
      obs::BenchSnapshot::from_json(Json::parse(text));
  EXPECT_EQ(back.bench, snap.bench);
  EXPECT_EQ(back.git_sha, snap.git_sha);
  EXPECT_EQ(back.build_type, snap.build_type);
  EXPECT_EQ(back.compiler, snap.compiler);
  EXPECT_EQ(back.threads, snap.threads);
  ASSERT_EQ(back.metrics.size(), 2u);
  EXPECT_EQ(back.metrics[0].name, "throughput");
  EXPECT_DOUBLE_EQ(back.metrics[0].value, 1.25e6);
  EXPECT_TRUE(back.metrics[0].higher_is_better);
  EXPECT_FALSE(back.metrics[1].higher_is_better);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].summary.count, 1000u);
  EXPECT_DOUBLE_EQ(back.histograms[0].summary.p99,
                   hist.summary().p99);
  ASSERT_EQ(back.profile.size(), snap.profile.size());
  EXPECT_EQ(back.profile[0].name, "test.snapshot_phase");
  EXPECT_EQ(back.profile[0].calls, 1u);

  // A future schema version is refused, not misread.
  Json stale = Json::parse(text);
  stale.set("schema_version", Json::integer(99));
  EXPECT_THROW(obs::BenchSnapshot::from_json(stale), Error);
}

TEST_F(ObsTest, MetricsJsonExportIncludesHistogramsAndProfile) {
  obs::set_metrics_enabled(true);
  obs::set_profiling_enabled(true);
  {
    STTRAM_PROFILE_SCOPE("test.export_phase");
  }
  STTRAM_OBS_OBSERVE("mc.trial_seconds", 1e-6);
  obs::set_profiling_enabled(false);
  const std::string path = ::testing::TempDir() + "obs_metrics.json";
  obs::write_metrics_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.contains("histograms"));
  EXPECT_EQ(
      doc.at("histograms").at("mc.trial_seconds").at("count").as_integer(),
      1);
  ASSERT_TRUE(doc.contains("profile"));
  ASSERT_GE(doc.at("profile").size(), 1u);
  EXPECT_EQ(doc.at("profile").at(0).at("phase").as_string(),
            "test.export_phase");
}

TEST_F(ObsTest, TransientSolverFeedsNewtonCounters) {
  const char* deck =
      "obs rc deck\n"
      "V1 in 0 1\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".tran 0.5n 10n\n"
      ".end\n";
  spice::ParsedDeck parsed = spice::parse_spice_deck(deck);
  ASSERT_TRUE(parsed.tran.has_value());
  obs::set_metrics_enabled(true);
  spice::run_transient(parsed.circuit, *parsed.tran);
  auto& registry = obs::Registry::instance();
  EXPECT_GT(registry.counter("spice.newton.solves").value(), 0u);
  EXPECT_GT(registry.counter("spice.newton.iterations").value(), 0u);
  EXPECT_GT(registry.counter("spice.newton.factorizations").value(), 0u);
  EXPECT_GT(registry.counter("spice.transient.steps_accepted").value(), 0u);
  EXPECT_EQ(registry.counter("spice.newton.nonconverged").value(), 0u);
}

}  // namespace
}  // namespace sttram
