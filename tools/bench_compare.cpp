// bench_compare: diffs two bench-snapshot sets (BENCH_<name>.json, see
// bench/snapshot.hpp) and gates on perf regressions.
//
//   bench_compare [--threshold FRAC] <baseline> <candidate>
//
// Baseline and candidate are directories (scanned for BENCH_*.json,
// the *.metrics.json telemetry sidecars are ignored) or single files.
// Snapshots pair up by their "bench" name, metrics by metric name.
// A metric regresses when it moves against its higher_is_better
// direction by more than the threshold (default 10 %); histogram
// percentiles are reported for context but never gate, since several
// benches fill them with wall-clock samples.
//
// Exit status: 0 = no regression, 1 = regression past the threshold,
// 2 = usage or I/O/schema error (mismatched schema versions refuse to
// compare rather than diffing garbage).
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sttram/common/token.hpp"
#include "sttram/io/table.hpp"
#include "sttram/obs/snapshot.hpp"

namespace fs = std::filesystem;
using sttram::parse_number;
using sttram::TextTable;
using sttram::obs::BenchHistogram;
using sttram::obs::BenchMetric;
using sttram::obs::BenchSnapshot;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--threshold FRAC] <baseline> "
               "<candidate>\n"
               "  baseline/candidate: directory of BENCH_*.json or a "
               "single snapshot file\n"
               "  --threshold FRAC: relative regression gate "
               "(default 0.10 = 10 %%)\n");
  return 2;
}

/// Loads every snapshot under `path` keyed by bench name.
std::map<std::string, BenchSnapshot> load_set(const std::string& path) {
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const fs::directory_entry& entry : fs::directory_iterator(path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".json" &&
          name.find(".metrics.json") == std::string::npos) {
        files.push_back(entry.path().string());
      }
    }
  } else {
    files.push_back(path);
  }
  std::map<std::string, BenchSnapshot> out;
  for (const std::string& file : files) {
    // A single unreadable or schema-mismatched snapshot should not
    // abort the whole comparison — warn and diff the rest.
    try {
      BenchSnapshot snap = BenchSnapshot::load(file);
      out[snap.bench] = std::move(snap);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_compare: skipping %s: %s\n", file.c_str(),
                   e.what());
    }
  }
  return out;
}

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string format_delta(double base, double cand) {
  if (base == 0.0) return cand == 0.0 ? "+0.0 %" : "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f %%", (cand - base) / base * 100.0);
  return buf;
}

/// Relative move against the metric's direction of goodness (> 0 means
/// the candidate got worse).
double badness(const BenchMetric& base, double cand) {
  if (base.value == 0.0) return 0.0;
  const double rel = (cand - base.value) / std::abs(base.value);
  return base.higher_is_better ? -rel : rel;
}

const BenchMetric* find_metric(const BenchSnapshot& snap,
                               const std::string& name) {
  for (const BenchMetric& m : snap.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const BenchHistogram* find_histogram(const BenchSnapshot& snap,
                                     const std::string& name) {
  for (const BenchHistogram& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.10;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) return usage();
      const std::optional<double> v = parse_number(argv[++i]);
      if (!v || *v < 0.0) {
        std::fprintf(stderr,
                     "bench_compare: --threshold must be a number >= 0, "
                     "got '%s'\n",
                     argv[i]);
        return 2;
      }
      threshold = *v;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) return usage();

  std::map<std::string, BenchSnapshot> base, cand;
  try {
    base = load_set(paths[0]);
    cand = load_set(paths[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  if (base.empty() || cand.empty()) {
    std::fprintf(stderr, "bench_compare: no BENCH_*.json snapshots in %s\n",
                 base.empty() ? paths[0].c_str() : paths[1].c_str());
    return 2;
  }

  int regressions = 0;
  for (const auto& [name, b] : base) {
    const auto it = cand.find(name);
    if (it == cand.end()) {
      std::printf("[%s] missing from candidate set — skipped\n\n",
                  name.c_str());
      continue;
    }
    const BenchSnapshot& c = it->second;
    std::printf("[%s] baseline %s (%s) vs candidate %s (%s)\n",
                name.c_str(), b.git_sha.c_str(), b.build_type.c_str(),
                c.git_sha.c_str(), c.build_type.c_str());
    TextTable t({"metric", "baseline", "candidate", "delta", "verdict"});
    for (const BenchMetric& m : b.metrics) {
      const BenchMetric* cm = find_metric(c, m.name);
      if (cm == nullptr) {
        t.add_row({m.name, format_value(m.value), "-", "-", "MISSING"});
        continue;
      }
      const double worse = badness(m, cm->value);
      const bool regressed = worse > threshold;
      if (regressed) ++regressions;
      t.add_row({m.name + " [" + m.unit + "]", format_value(m.value),
                 format_value(cm->value), format_delta(m.value, cm->value),
                 regressed ? "REGRESSED" : "ok"});
    }
    // Candidate-only metrics are additions (a new kernel or gate), not
    // regressions: report them for the record, never gate on them.
    for (const BenchMetric& cm : c.metrics) {
      if (find_metric(b, cm.name) == nullptr) {
        t.add_row({cm.name + " [" + cm.unit + "]", "-",
                   format_value(cm.value), "-", "ADDED"});
      }
    }
    for (const BenchHistogram& h : b.histograms) {
      const BenchHistogram* ch = find_histogram(c, h.name);
      if (ch == nullptr) {
        t.add_row({h.name + ".p99", format_value(h.summary.p99), "-", "-",
                   "MISSING"});
        continue;
      }
      t.add_row({h.name + ".p50 [" + h.unit + "]",
                 format_value(h.summary.p50), format_value(ch->summary.p50),
                 format_delta(h.summary.p50, ch->summary.p50), "info"});
      t.add_row({h.name + ".p99 [" + h.unit + "]",
                 format_value(h.summary.p99), format_value(ch->summary.p99),
                 format_delta(h.summary.p99, ch->summary.p99), "info"});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  for (const auto& [name, c] : cand) {
    if (base.count(name) == 0) {
      std::printf("[%s] new in candidate set (no baseline)\n\n",
                  name.c_str());
    }
  }

  if (regressions > 0) {
    std::printf("%d metric(s) regressed past the %.0f %% threshold\n",
                regressions, threshold * 100.0);
    return 1;
  }
  std::printf("no regressions past the %.0f %% threshold\n",
              threshold * 100.0);
  return 0;
}
