// End-to-end benchmark: command-line entry point.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--root <dir>] [--tiny] [--reference <file>]
//            [--source-digest <hex>]
//
// Untraced (--trace 0): alternates 1-thread and 4-thread runs of the
// job for --seconds, checking that every run's output digest agrees and
// repeating the set-up at intervals (median = setup_s), then runs the
// workload's own output checks.  Traced (--trace 1): measures the
// per-layer metrics of every workload (the named one gets most of the
// time) and writes the spans.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when
// every check passed, 1 when one failed, 2 on a usage error.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/io/json.hpp"

namespace {

using e2e::Metrics;
using sttram::Json;

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "e2ebench: " << msg
            << "\nusage: e2ebench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--root <dir>] [--tiny] [--reference <file>]"
               " [--source-digest <hex>]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  if (used != text.size() || text.empty() || text[0] == '-') {
    usage(flag + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Json metrics_json(const Metrics& metrics) {
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    Json j = Json::object();
    j.set("value", Json::number(m.value));
    j.set("unit", Json::string(m.unit));
    out.set(name, std::move(j));
  }
  return out;
}

Json samples_json(const std::vector<double>& v) {
  Json out = Json::array();
  for (const double x : v) out.push_back(Json::number(x));
  return out;
}

/// Seed whose output digests are recorded in reference_digests.json.
constexpr std::uint64_t kReferenceSeed = 20100308;

/// Reference digest recorded for this workload and size, or "".
std::string reference_digest(const e2e::Options& opt) {
  if (opt.seed != kReferenceSeed || opt.reference.empty()) return "";
  const Json doc = Json::parse(e2e::read_file(opt.reference));
  const std::string key = opt.workload + (opt.tiny ? "/tiny" : "/full");
  return doc.contains(key) ? doc.at(key).as_string() : "";
}

int run(int argc, char** argv) {
  e2e::Options opt;
  std::string source_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, value());
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, value()));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      opt.trace = v == "1";
      have_trace = true;
    } else if (flag == "--root") {
      opt.root = value();
    } else if (flag == "--tiny") {
      opt.tiny = true;
    } else if (flag == "--reference") {
      opt.reference = value();
    } else if (flag == "--source-digest") {
      source_digest = value();
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (e2e::make_workload(opt.workload) == nullptr) {
    usage("unknown workload '" + opt.workload + "'");
  }
  opt.out_dir = opt.root + "/.bench_out";
  std::filesystem::create_directories(opt.out_dir);
#ifdef __GLIBC__
  // Hold glibc's large-block threshold at its start-up value.  Left to
  // adapt, it moves after the first large free, so later runs would
  // recycle heap pages a user's fresh process never has, and peak RSS
  // would depend on allocation history.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif

  e2e::Checks checks;
  Metrics metrics;
  Json samples = Json::object();
  std::size_t runs = 0;
  std::string digest;

  // Set-up builds the pools and the workload.  Untraced runs repeat it
  // at even intervals across the measuring window, replacing the live
  // instance each time, so its median (setup_s) spans the same host
  // conditions as the timed runs.
  const std::size_t setups = opt.trace ? 1 : (opt.tiny ? 2 : 9);
  std::vector<double> setup_walls;
  std::unique_ptr<e2e::Pools> pools;
  std::unique_ptr<e2e::Workload> work;
  const auto set_up = [&] {
    work.reset();
    pools.reset();
    const auto t0 = e2e::Clock::now();
    pools = std::make_unique<e2e::Pools>();
    work = e2e::make_workload(opt.workload);
    work->setup(opt, *pools);
    setup_walls.push_back(e2e::seconds_since(t0));
  };
  set_up();

  if (!opt.trace) {
    // Closed loop: alternate 1-thread and 4-thread jobs, each waiting
    // for its result; every digest must equal the first.
    std::vector<double> walls[2];
    const std::size_t min_rounds = opt.tiny ? 1 : 3;
    const auto start = e2e::Clock::now();
    for (std::size_t round = 0;
         round < min_rounds || e2e::seconds_since(start) < opt.seconds;
         ++round) {
      if (setup_walls.size() < setups &&
          e2e::seconds_since(start) * static_cast<double>(setups) >=
              opt.seconds * static_cast<double>(setup_walls.size())) {
        set_up();
      }
      for (std::size_t v = 0; v < 2; ++v) {
        const auto t0 = e2e::Clock::now();
        std::string d;
        try {
          d = work->run(v == 0 ? static_cast<sttram::ParallelExecutor&>(
                                     pools->t1)
                               : pools->t4);
        } catch (const std::exception& e) {
          d = std::string("threw: ") + e.what();
        }
        walls[v].push_back(e2e::seconds_since(t0));
        if (digest.empty()) digest = d;
        checks.expect(d == digest, opt.workload + " run " +
                                       std::to_string(runs) + " (" +
                                       (v == 0 ? "1" : "4") +
                                       " threads) digest " + d +
                                       " != first run's " + digest);
        ++runs;
      }
    }
    work->verify(*pools, checks);
    const std::string ref = reference_digest(opt);
    if (!ref.empty()) {
      checks.expect(digest == ref, opt.workload + " digest " + digest +
                                       " != reference " + ref);
    }

    // Interference from other tenants of the host only ever adds time
    // and comes in phases of seconds.  A 1-thread run of fixed work is
    // then best estimated by its fastest run; a 4-thread run waits for
    // its slowest core, so all four clear at once is the outlier and
    // that figure takes the median (README.md, "Steadiness").
    const double items = work->items_per_run();
    metrics["items_per_s.t1"] = {items / e2e::quantile(walls[0], 0.0), "1/s"};
    metrics["items_per_s.t4"] = {items / e2e::median(walls[1]), "1/s"};
    samples.set("items_per_s.t1.median",
                Json::number(items / e2e::median(walls[0])));
    metrics["setup_s"] = {e2e::median(setup_walls), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    samples.set("wall_s.t1", samples_json(walls[0]));
    samples.set("wall_s.t4", samples_json(walls[1]));
    samples.set("setup_s", samples_json(setup_walls));
  } else {
    // Traced run: the named workload gets most of the time; the others
    // run their ladders once so every per-layer metric is present.
    e2e::Tracer tracer;
    tracer.enabled = true;
    const double main_budget = 0.6 * opt.seconds;
    for (const std::string& name : e2e::workload_names()) {
      std::unique_ptr<e2e::Workload> other;
      e2e::Workload* w = work.get();
      if (name != opt.workload) {
        other = e2e::make_workload(name);
        other->setup(opt, *pools);
        w = other.get();
      }
      const Metrics m = w->trace(*pools, tracer, checks,
                                 name == opt.workload ? main_budget : 0.0);
      metrics.insert(m.begin(), m.end());
    }

    // Pool dispatch: for_chunks with an empty body at 4 threads.
    std::vector<double> per_call;
    for (int rep = 0; rep < 15; ++rep) {
      constexpr int kCalls = 2000;
      const auto t0 = e2e::Clock::now();
      for (int c = 0; c < kCalls; ++c) {
        pools->t4.for_chunks(4, [](std::size_t, std::size_t, std::size_t) {});
      }
      per_call.push_back(e2e::seconds_since(t0) / kCalls);
    }
    metrics["common.pool.dispatch_us"] = {1e6 * e2e::median(per_call), "us"};

    // Tracing overhead: the named workload's traced job with spans on
    // vs off.
    const auto walls = e2e::alternate(
        2, 0.25 * opt.seconds, 3, [&](std::size_t v) {
          tracer.enabled = v == 0;
          work->ladder_job(*pools, tracer);
        });
    tracer.enabled = false;
    metrics["trace.overhead_frac"] = {
        e2e::median(walls[0]) / e2e::median(walls[1]) - 1.0, "fraction"};
    runs = walls[0].size() + walls[1].size();

    const std::string span_path = opt.out_dir + "/" + opt.workload +
                                  "-seed" + std::to_string(opt.seed) +
                                  ".spans.csv";
    tracer.write_csv(span_path);
    Json layers = Json::object();
    for (const auto& [name, t] : tracer.totals()) {
      Json j = Json::object();
      j.set("total_s", Json::number(t.total_s));
      j.set("self_s", Json::number(t.self_s));
      j.set("count", Json::integer(static_cast<std::int64_t>(t.count)));
      layers.set(name, std::move(j));
    }
    samples.set("span_totals", std::move(layers));
    samples.set("span_file", Json::string(span_path));
  }

  for (auto& [name, m] : metrics) {
    if (!checks.expect(std::isfinite(m.value), name + " is not finite")) {
      m.value = 0.0;
    }
  }

  // Result file with provenance.
  Json prov = Json::object();
  prov.set("git_sha", Json::string(E2E_GIT_SHA));
  prov.set("source_digest", Json::string(source_digest));
  prov.set("build_type", Json::string(E2E_BUILD_TYPE));
  prov.set("compiler", Json::string(E2E_COMPILER));
  prov.set("simd_isa",
           Json::string(sttram::simd_isa_name(sttram::active_simd_isa())));
  prov.set("threads", Json::string("1,4"));
  prov.set("nproc", Json::integer(sysconf(_SC_NPROCESSORS_ONLN)));
  prov.set("cpu_model", Json::string(cpu_model()));
  prov.set("seed", Json::integer(static_cast<std::int64_t>(opt.seed)));
  prov.set("run_count", Json::integer(static_cast<std::int64_t>(runs)));
  prov.set("seconds", Json::number(opt.seconds));
  prov.set("tiny", Json::boolean(opt.tiny));

  Json result = Json::object();
  result.set("workload", Json::string(opt.workload));
  result.set("trace", Json::boolean(opt.trace));
  result.set("provenance", std::move(prov));
  result.set("digest", Json::string(digest));
  result.set("metrics", metrics_json(metrics));
  result.set("samples", std::move(samples));
  result.set("attempted",
             Json::integer(static_cast<std::int64_t>(checks.attempted())));
  result.set("failed",
             Json::integer(static_cast<std::int64_t>(checks.failed())));
  const std::string result_path =
      opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
      (opt.trace ? "-trace" : "") + ".json";
  std::ofstream(result_path) << result.dump(2) << "\n";

  for (const auto& [name, m] : metrics) {
    std::printf("%-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("result file: %s\n", result_path.c_str());

  Json line = Json::object();
  line.set("correct", Json::boolean(checks.failed() == 0));
  line.set("attempted",
           Json::integer(static_cast<std::int64_t>(checks.attempted())));
  line.set("failed",
           Json::integer(static_cast<std::int64_t>(checks.failed())));
  line.set("metrics", metrics_json(metrics));
  std::printf("%s\n", line.dump().c_str());
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
