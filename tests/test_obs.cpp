// Tests of the observability layer: registry semantics, histogram
// correctness vs a sorted-vector oracle, the one instrumentation scope
// (profile, `<phase>_seconds` histogram and trace event from one
// line), JSON export, trace-event output, and — critically — that
// instrumentation never changes numerical results (same seed =>
// identical samples).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/io/json.hpp"
#include "sttram/obs/obs.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/scenario.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/read_operation.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/parser.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/monte_carlo.hpp"
#include "sttram/stats/rng.hpp"

// Counting replacement of the global operator new (forwarding to malloc,
// so the binary also runs under ASan and TSan): an inert scope must not
// allocate.  Kept out of line so GCC never pairs an inlined free() with
// a new-expression's pointer (-Wmismatched-new-delete).
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// A duration ("timer") is a HistogramMetric like any distribution.
TEST_F(ObsTest, TimerAndGauge) {
  auto& registry = obs::Registry::instance();
  obs::HistogramMetric& t = registry.histogram("test.timer_seconds");
  t.record(1.0);
  t.record(3.0);
  const obs::Histogram s = t.snapshot();
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
  registry.histogram("test.json_seconds").record(0.5);
  const std::string dump = registry.to_json().dump(2);
  // Live values.
  EXPECT_NE(dump.find("\"test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(dump.find("\"test.json_seconds\""), std::string::npos);
  // Pre-registered solver/MC schema is always present, even untouched.
  EXPECT_NE(dump.find("\"spice.newton.iterations\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"mc.trials\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"engine.requests\": 0"), std::string::npos);
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"gauges\""), std::string::npos);
  EXPECT_NE(dump.find("\"histograms\""), std::string::npos);
  // The pre-registered run durations are histograms.
  EXPECT_NE(dump.find("\"yield.experiment_seconds\": {"), std::string::npos);
  EXPECT_NE(dump.find("\"traffic.simulate_seconds\": {"),
            std::string::npos);
}

TEST_F(ObsTest, TraceSpansProduceValidChromeTraceJson) {
  auto& recorder = obs::TraceRecorder::instance();
  {
    // Inactive recorder: scopes are no-ops.
    STTRAM_OBS_SCOPE("test.ignored");
  }
  EXPECT_EQ(recorder.event_count(), 0u);

  recorder.start();
  {
    STTRAM_OBS_SCOPE("outer.phase");
    { STTRAM_OBS_SCOPE("inner.phase"); }
  }
  recorder.stop();
  EXPECT_EQ(recorder.event_count(), 2u);

  std::ostringstream out;
  recorder.write(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"outer.phase\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"inner.phase\""), std::string::npos);
  // The category is the name's first segment.
  EXPECT_NE(text.find("\"cat\": \"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\": \"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\""), std::string::npos);
  // Events survive stop() until the next start()/clear().
  recorder.start();
  EXPECT_EQ(recorder.event_count(), 0u);
  recorder.stop();
}
TEST_F(ObsTest, MonteCarloStatsMatchOnVsOff) {
  const auto trial = std::function<double(Xoshiro256&)>(
      [](Xoshiro256& rng) { return rng.next_double(); });
  const RunningStats off = monte_carlo_stats(7, 300, trial);
  obs::set_metrics_enabled(true);
  obs::TraceRecorder::instance().start();
  const RunningStats on = monte_carlo_stats(7, 300, trial);
  obs::TraceRecorder::instance().stop();
  EXPECT_EQ(off.count(), on.count());
  EXPECT_EQ(off.mean(), on.mean());
  EXPECT_EQ(off.variance(), on.variance());
  EXPECT_EQ(off.min(), on.min());
  EXPECT_EQ(off.max(), on.max());
  // ...and the run was measured once, not per trial.
  auto& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("mc.trials").value(), 300u);
  EXPECT_EQ(registry.histogram("mc.stats_seconds").count(), 1u);
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 1u);
}
TEST_F(ObsTest, YieldExperimentIsInvariantUnderInstrumentation) {
  YieldConfig cfg;
  cfg.geometry = {8, 8};
  const YieldResult off = run_yield_experiment(cfg);
  obs::set_metrics_enabled(true);
  obs::TraceRecorder::instance().start();
  const YieldResult on = run_yield_experiment(cfg);
  obs::TraceRecorder::instance().stop();

  for (const SchemeRow& row : kSchemeTable) {
    const SchemeYield& a = off.scheme(row.id);
    const SchemeYield& b = on.scheme(row.id);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.sm0_stats.mean(), b.sm0_stats.mean());
    EXPECT_EQ(a.sm1_stats.mean(), b.sm1_stats.mean());
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
  std::size_t failures = 0;
  for (const SchemeRow& row : kSchemeTable) {
    failures += pooled.scheme(row.id).failures;
  }
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
  EXPECT_EQ(registry.histogram("traffic.simulate_seconds").count(), 1u);
  EXPECT_EQ(registry.histogram("engine.latency_seconds").count(), 5000u);
  EXPECT_EQ(registry.histogram("engine.read_latency_seconds").count(),
            on.reads);
  EXPECT_EQ(registry.histogram("engine.write_latency_seconds").count(),
            on.writes);
  EXPECT_EQ(registry.gauge("engine.queue_depth").value(),
            static_cast<double>(on.peak_queue_depth));
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
  EXPECT_THROW(registry.histogram("dash-name"), InvalidArgument);
  EXPECT_THROW(registry.histogram("semi;colon"), InvalidArgument);
  // Valid character set passes.
  EXPECT_NO_THROW(registry.counter("ok.name_09"));
  // Free-form labels normalize into the valid alphabet.
  EXPECT_EQ(obs::normalize_metric_name("read1(I1,SLT1)"), "read1_i1_slt1");
  EXPECT_EQ(obs::normalize_metric_name("sense+latch(SenEn)"),
            "sense_latch_senen");
  EXPECT_EQ(obs::normalize_metric_name("__weird--Name__"), "weird_name");
  EXPECT_NO_THROW(
      registry.histogram(obs::normalize_metric_name("Write-Back Phase")));
}

TEST_F(ObsTest, RegistryRejectsCrossKindNameReuse) {
  auto& registry = obs::Registry::instance();
  registry.counter("test.kind_clash");
  EXPECT_THROW(registry.gauge("test.kind_clash"), InvalidArgument);
  EXPECT_THROW(registry.histogram("test.kind_clash"), InvalidArgument);
  // Same kind is fine (it is the same metric).
  EXPECT_NO_THROW(registry.counter("test.kind_clash"));
  // The pre-registered duration histograms cannot be shadowed by a
  // metric of another kind.
  EXPECT_THROW(registry.gauge("traffic.simulate_seconds"), InvalidArgument);
  EXPECT_THROW(registry.counter("yield.experiment_seconds"),
               InvalidArgument);
}

TEST_F(ObsTest, ProfileScopeIsInertWhenDisabled) {
  // Every sink off: the scope feeds nothing, registers no histogram and
  // allocates nothing.
  const std::size_t allocations = g_allocations.load();
  for (int k = 0; k < 1000; ++k) {
    STTRAM_OBS_SCOPE("test.disabled_phase");
  }
  EXPECT_EQ(g_allocations.load(), allocations);
  EXPECT_TRUE(obs::Profiler::instance().report().empty());
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0u);
  for (const auto& h : obs::Registry::instance().histograms()) {
    EXPECT_NE(h.name, "test.disabled_phase_seconds");
  }
}

// Each sink alone: a scope feeds exactly the sinks that are on.
TEST_F(ObsTest, ScopeFeedsOnlyTheSinksThatAreOn) {
  const auto run = [] { STTRAM_OBS_SCOPE("test.sink_phase"); };
  auto& registry = obs::Registry::instance();
  const auto histogram_count = [&registry] {
    for (const auto& h : registry.histograms()) {
      if (h.name == "test.sink_phase_seconds") return h.hist.count();
    }
    return std::uint64_t{0};
  };
  obs::set_metrics_enabled(true);
  run();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(histogram_count(), 1u);
  EXPECT_TRUE(obs::Profiler::instance().report().empty());
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0u);

  obs::set_profiling_enabled(true);
  run();
  obs::set_profiling_enabled(false);
  EXPECT_EQ(histogram_count(), 1u);
  ASSERT_EQ(obs::Profiler::instance().report().size(), 1u);
  EXPECT_EQ(obs::Profiler::instance().report()[0].calls, 1u);
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 0u);

  obs::TraceRecorder::instance().start();
  run();
  obs::TraceRecorder::instance().stop();
  EXPECT_EQ(histogram_count(), 1u);
  EXPECT_EQ(obs::Profiler::instance().report()[0].calls, 1u);
  EXPECT_EQ(obs::TraceRecorder::instance().event_count(), 1u);
}
TEST_F(ObsTest, ProfileScopeAttributesSelfAndTotalTime) {
  obs::set_profiling_enabled(true);
  {
    STTRAM_OBS_SCOPE("test.outer");
    {
      STTRAM_OBS_SCOPE("test.inner");
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
        STTRAM_OBS_SCOPE("test.thread_outer");
        STTRAM_OBS_SCOPE("test.thread_inner");
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
    STTRAM_OBS_SCOPE("test.traced_phase");
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

TEST_F(ObsTest, MetricsJsonExportIncludesHistogramsAndProfile) {
  obs::set_metrics_enabled(true);
  obs::set_profiling_enabled(true);
  {
    STTRAM_OBS_SCOPE("test.export_phase");
  }
  obs::set_profiling_enabled(false);
  const std::string path = ::testing::TempDir() + "obs_metrics.json";
  Json provenance = Json::object();
  provenance.set("git_sha", Json::string("abc1234"));
  obs::write_metrics_json(path, provenance);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.contains("histograms"));
  EXPECT_EQ(doc.at("histograms")
                .at("test.export_phase_seconds")
                .at("count")
                .as_integer(),
            1);
  ASSERT_TRUE(doc.contains("profile"));
  ASSERT_GE(doc.at("profile").size(), 1u);
  EXPECT_EQ(doc.at("profile").at(0).at("phase").as_string(),
            "test.export_phase");
  EXPECT_EQ(doc.at("provenance").at("git_sha").as_string(), "abc1234");
  EXPECT_FALSE(doc.contains("timers"));
}

// The Fig. 9 phases record latency in seconds and energy in pJ: a
// phase's ~0.3 pJ in joules would sit below the histogram's 2^-40 floor
// and land in its underflow bucket.
TEST_F(ObsTest, ReadPhasesRecordLatencyAndEnergyHistograms) {
  OneT1JCell cell;
  const SelfRefConfig config;
  const double beta =
      NondestructiveSelfReference(cell.mtj().params(), Ohm(917.0), config)
          .paper_beta();
  obs::set_metrics_enabled(true);
  const ReadResult r = NondestructiveReadOperation(config, beta).execute(cell);
  auto& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("read.phases").value(), r.phases.size());
  double energy_pj = 0.0;
  for (const ReadPhase& phase : r.phases) {
    const std::string name = obs::normalize_metric_name(phase.name);
    const obs::Histogram latency =
        registry.histogram("read.phase_latency_s." + name).snapshot();
    const obs::Histogram energy =
        registry.histogram("read.phase_energy_pj." + name).snapshot();
    ASSERT_EQ(latency.count(), 1u);
    ASSERT_EQ(energy.count(), 1u);
    EXPECT_EQ(latency.max(), phase.duration.value());
    EXPECT_EQ(energy.max(), phase.energy.value() * 1e12);
    // A phase that draws energy is resolved, not underflowed.
    if (phase.energy.value() > 0.0) {
      EXPECT_EQ(energy.bucket_count_at(0), 0u);
    }
    energy_pj += energy.max();
  }
  EXPECT_GT(energy_pj, 0.1);
}

TEST_F(ObsTest, TailEstimateIsInvariantUnderInstrumentation) {
  const TailConfig cfg;
  const TailEstimate off = estimate_margin_tail(cfg, 3, 2000);
  obs::set_metrics_enabled(true);
  const TailEstimate on = estimate_margin_tail(cfg, 3, 2000);
  EXPECT_EQ(off.estimate.probability, on.estimate.probability);
  EXPECT_EQ(off.estimate.std_error, on.estimate.std_error);
  EXPECT_EQ(off.design_radius, on.design_radius);
  // One design-point search per estimate, and every sampled trial
  // evaluated on top of the search's own margin evaluations.
  auto& registry = obs::Registry::instance();
  EXPECT_EQ(registry.counter("tail.searches").value(), 1u);
  EXPECT_GT(registry.counter("tail.margin_evaluations").value(), 2000u);
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

/// The smoke campaign (one instance of every experiment kind) at two
/// threads, so instance scopes also run on a pool worker.
void run_smoke_campaign() {
  std::ifstream in(STTRAM_CAMPAIGN_DIR "/smoke.json");
  std::ostringstream text;
  text << in.rdbuf();
  const scenario::CampaignSpec spec =
      scenario::parse_campaign_text(text.str());
  engine::ThreadPool pool(2);
  (void)scenario::run_campaign(spec, &pool);
}

/// The recorder's events as (name, ts, tid) rows.
std::vector<std::tuple<std::string, double, std::int64_t>> trace_events() {
  const Json doc = obs::TraceRecorder::instance().to_json();
  const Json& events = doc.at("traceEvents");
  std::vector<std::tuple<std::string, double, std::int64_t>> rows;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const Json& e = events.at(k);
    rows.emplace_back(e.at("name").as_string(), e.at("ts").as_number(),
                      e.at("tid").as_integer());
  }
  return rows;
}

// One scope, three sinks: with metrics, profiling and the recorder on,
// every profile phase P with n calls has a P_seconds histogram of count
// n and exactly n trace events named P, and no event restates another.
TEST_F(ObsTest, EachPhaseFeedsProfileHistogramAndTraceOnce) {
  obs::set_metrics_enabled(true);
  obs::set_profiling_enabled(true);
  obs::TraceRecorder::instance().start();
  run_smoke_campaign();
  obs::TraceRecorder::instance().stop();
  obs::set_profiling_enabled(false);
  obs::set_metrics_enabled(false);

  const auto rows = trace_events();
  std::map<std::string, std::uint64_t> events_per_name;
  std::set<std::tuple<std::string, double, std::int64_t>> seen;
  for (const auto& row : rows) {
    ++events_per_name[std::get<0>(row)];
    EXPECT_TRUE(seen.insert(row).second)
        << "two events named " << std::get<0>(row) << " start at "
        << std::get<1>(row) << " on one thread";
  }
  std::map<std::string, std::uint64_t> histogram_counts;
  for (const auto& h : obs::Registry::instance().histograms()) {
    histogram_counts[h.name] = h.hist.count();
  }
  const auto phases = obs::Profiler::instance().report();
  ASSERT_GE(phases.size(), 8u);
  std::uint64_t calls = 0;
  for (const obs::PhaseStats& phase : phases) {
    SCOPED_TRACE(phase.name);
    EXPECT_EQ(histogram_counts[phase.name + "_seconds"], phase.calls);
    EXPECT_EQ(events_per_name[phase.name], phase.calls);
    calls += phase.calls;
  }
  // Every event is a phase's: nothing outside the profile is traced.
  EXPECT_EQ(rows.size(), calls);
  // One instance scope per scenario of the campaign, inside one run.
  EXPECT_EQ(events_per_name["campaign.run"], 1u);
  EXPECT_EQ(events_per_name["campaign.scenario"], 8u);
}

// The recorder alone sees every phase the profile sees.
TEST_F(ObsTest, TraceOnlyRunHoldsEveryPhase) {
  obs::set_profiling_enabled(true);
  run_smoke_campaign();
  obs::set_profiling_enabled(false);
  obs::TraceRecorder::instance().start();
  run_smoke_campaign();
  obs::TraceRecorder::instance().stop();

  std::set<std::string> traced;
  for (const auto& row : trace_events()) traced.insert(std::get<0>(row));
  const auto phases = obs::Profiler::instance().report();
  ASSERT_FALSE(phases.empty());
  for (const obs::PhaseStats& phase : phases) {
    EXPECT_EQ(traced.count(phase.name), 1u) << phase.name;
  }
  EXPECT_EQ(traced.size(), phases.size());
}

}  // namespace
}  // namespace sttram
