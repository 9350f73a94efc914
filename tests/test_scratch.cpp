// Run-scoped scratch (DESIGN.md §9.3).  Once a thread has run it, no run
// path asks the allocator for a block of 128 KiB or more: glibc serves
// each such request with its own mmap, faulted in page by page and
// unmapped with a TLB shootdown, so a campaign of many small instances
// would spend its pool threads' time in the kernel.  The yield window
// buffers are kept per thread, the open-loop traffic stream is drawn in
// blocks, a trace is replayed in place and the closed loop's clients
// each keep the id of their one outstanding request; this binary checks
// all four, and that the kept buffers carry no state from one run into
// the next.
//
// It replaces the global operator new (plain, array and aligned forms,
// each with its matching delete) with one that counts large requests
// from any thread and forwards to malloc, so it is its own binary and
// runs under ASan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>

#include "sttram/common/error.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/fault/traffic_faults.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/sim/yield.hpp"

#ifndef STTRAM_CAMPAIGN_DIR
#define STTRAM_CAMPAIGN_DIR "examples/campaigns"
#endif

namespace {

/// The line: glibc's default mmap threshold.
constexpr std::size_t kLargeRequest = 128 * 1024;
std::atomic<std::size_t> g_large_requests{0};

void count_request(std::size_t size) {
  if (size >= kLargeRequest) {
    g_large_requests.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_request(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_request(size);
  void* p = nullptr;
  const std::size_t a =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sttram {
namespace {

/// Requests of kLargeRequest bytes or more, from any thread, between
/// the two marks around `run`.
template <class Run>
std::size_t large_requests_during(Run&& run) {
  const std::size_t before = g_large_requests.load();
  run();
  return g_large_requests.load() - before;
}

/// One scatter point per scheme, as the CLI and the campaign kind keep:
/// the result's own vectors are the caller's, not scratch.
YieldConfig yield_config(std::size_t rows, std::size_t cols) {
  YieldConfig cfg;
  cfg.geometry = {rows, cols};
  cfg.max_scatter_points = 1;
  return cfg;
}

TEST(RunScratch, SecondYieldRunOnAThreadMakesNoLargeRequest) {
  for (const YieldConfig& cfg : {yield_config(128, 128),
                                 yield_config(1024, 48)}) {
    (void)run_yield_experiment(cfg);
    EXPECT_EQ(large_requests_during([&] { (void)run_yield_experiment(cfg); }),
              0u)
        << cfg.geometry.rows << "x" << cfg.geometry.cols;
  }
}

TEST(RunScratch, SecondPooledYieldRunMakesNoLargeRequest) {
  engine::ThreadPool pool(4);
  const YieldConfig cfg = yield_config(1024, 48);
  (void)run_yield_experiment(cfg, &pool);
  EXPECT_EQ(
      large_requests_during([&] { (void)run_yield_experiment(cfg, &pool); }),
      0u);
}

TEST(RunScratch, PoissonTrafficMakesNoLargeRequest) {
  fault::TrafficFaultConfig secded;
  secded.raw_ber = 1e-3;
  secded.retry_latency = Second(27.5e-9);
  secded.retry_energy = Joule(0.31e-12);
  const fault::TrafficFaultModel hook(secded);
  engine::TrafficConfig cfg;
  cfg.requests = 20000;
  cfg.word_bits = 64;
  cfg.faults = &hook;
  // The stream is drawn in blocks on the stack, so even the first run
  // holds no run-sized buffer.
  for (int run = 0; run < 2; ++run) {
    std::size_t reads = 0;
    EXPECT_EQ(large_requests_during(
                  [&] { reads = engine::run_traffic(cfg).reads; }),
              0u)
        << "run " << run;
    EXPECT_GT(reads, 0u);
  }
}

TEST(RunScratch, ClosedLoopTrafficMakesNoLargeRequest) {
  // A completion finds its owner among the clients: no per-request owner
  // table (400 KB at the default 100 000 requests).
  engine::TrafficConfig cfg;
  cfg.workload = engine::WorkloadKind::kClosedLoop;
  for (int run = 0; run < 2; ++run) {
    std::size_t requests = 0;
    EXPECT_EQ(large_requests_during(
                  [&] { requests = engine::run_traffic(cfg).requests; }),
              0u)
        << "run " << run;
    EXPECT_EQ(requests, cfg.requests);
  }
}

TEST(RunScratch, ArrivalSortedTraceMakesNoLargeRequest) {
  // The caller's trace (480 KB) is the input, built before the marks,
  // and is replayed in place, not copied.
  engine::PoissonWorkloadConfig gen;
  gen.mean_interarrival = Second(5e-9);
  gen.banks = 4;
  engine::TrafficConfig cfg;
  cfg.banks = gen.banks;
  cfg.workload = engine::WorkloadKind::kTrace;
  cfg.trace.resize(20000);
  engine::PoissonWorkload(gen).fill(cfg.trace.size(), cfg.trace.data());
  std::size_t requests = 0;
  EXPECT_EQ(large_requests_during(
                [&] { requests = engine::run_traffic(cfg).requests; }),
            0u);
  EXPECT_EQ(requests, cfg.trace.size());
}

TEST(RunScratch, SecondCampaignRunMakesNoLargeRequest) {
  for (const char* name :
       {"smoke", "fig11_yield", "controller", "traffic_fault_sweep"}) {
    std::ifstream in(std::string(STTRAM_CAMPAIGN_DIR) + "/" + name +
                     ".json");
    ASSERT_TRUE(in.good()) << name;
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const scenario::CampaignSpec spec = scenario::parse_campaign_text(text);
    (void)scenario::run_campaign(spec);
    EXPECT_EQ(
        large_requests_during([&] { (void)scenario::run_campaign(spec); }),
        0u)
        << name;
  }
}

// ------------------------------------------------- kept buffers, no state

void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  expect_same_bits(a.mean(), b.mean(), "mean");
  expect_same_bits(a.variance(), b.variance(), "variance");
  expect_same_bits(a.min(), b.min(), "min");
  expect_same_bits(a.max(), b.max(), "max");
}

void expect_same_yield(const YieldResult& a, const YieldResult& b) {
  for (const SchemeRow& row : kSchemeTable) {
    const SchemeYield& x = a.scheme(row.id);
    const SchemeYield& y = b.scheme(row.id);
    EXPECT_EQ(x.scheme, y.scheme);
    EXPECT_EQ(x.bits, y.bits);
    EXPECT_EQ(x.failures, y.failures);
    expect_same_stats(x.sm0_stats, y.sm0_stats);
    expect_same_stats(x.sm1_stats, y.sm1_stats);
    ASSERT_EQ(x.scatter.size(), y.scatter.size());
    for (std::size_t i = 0; i < x.scatter.size(); ++i) {
      expect_same_bits(x.scatter[i].first, y.scatter[i].first, "sm0");
      expect_same_bits(x.scatter[i].second, y.scatter[i].second, "sm1");
    }
  }
  expect_same_bits(a.die_factor, b.die_factor, "die_factor");
  expect_same_bits(a.shared_reference_window.value(),
                   b.shared_reference_window.value(), "window");
  expect_same_bits(a.shared_v_ref.value(), b.shared_v_ref.value(), "v_ref");
  expect_same_bits(a.beta_destructive, b.beta_destructive, "beta_d");
  expect_same_bits(a.beta_nondestructive, b.beta_nondestructive, "beta_nd");
}

/// A run's result, or the message of the InvalidArgument it throws.
struct YieldOutcome {
  YieldResult result;
  std::string error;
};

YieldOutcome run_caught(const YieldConfig& cfg, ParallelExecutor* executor) {
  YieldOutcome out;
  try {
    out.result = run_yield_experiment(cfg, executor);
  } catch (const InvalidArgument& e) {
    out.error = e.what();
  }
  return out;
}

/// The config's outcome on a thread that has run nothing else, so its
/// buffers start empty.
YieldOutcome on_fresh_thread(const YieldConfig& cfg) {
  YieldOutcome out;
  std::thread([&] { out = run_caught(cfg, nullptr); }).join();
  return out;
}

void expect_same_outcome(const YieldOutcome& a, const YieldOutcome& b) {
  EXPECT_EQ(a.error, b.error);
  if (a.error.empty() && b.error.empty()) expect_same_yield(a.result, b.result);
}

TEST(RunScratch, KeptYieldBuffersCarryNoStateBetweenRuns) {
  // Every cell's margins reach the comparison: the scatter keeps all.
  // The buffers are first larger than the run needs (three windows,
  // then one cell, then no cell), then exactly as large.  An array
  // without cells returns the empty result before any buffer is
  // touched, on either thread alike.
  std::thread([] {
    for (const auto& [rows, cols] :
         {std::pair<std::size_t, std::size_t>{1024, 48}, {1, 1}, {0, 48},
          {0, 0}, {128, 128}}) {
      YieldConfig cfg;
      cfg.geometry = {rows, cols};
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      const YieldOutcome kept = run_caught(cfg, nullptr);
      EXPECT_TRUE(kept.error.empty()) << kept.error;
      expect_same_outcome(kept, on_fresh_thread(cfg));
    }
  }).join();
}

TEST(RunScratch, PooledRunOnKeptBuffersEqualsSerialRun) {
  engine::ThreadPool pool(4);
  YieldConfig cfg;
  cfg.geometry = {1024, 48};
  const YieldOutcome serial = on_fresh_thread(cfg);
  ASSERT_TRUE(serial.error.empty()) << serial.error;
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    expect_same_outcome(run_caught(cfg, &pool), serial);
  }
}

}  // namespace
}  // namespace sttram
