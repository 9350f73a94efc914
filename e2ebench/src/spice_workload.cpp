// spice_reads: a seeded sweep of circuit-level reads — half
// simulate_nondestructive_read, half simulate_destructive_read (whose
// write pulses are segmented transients), on P and AP cells with MTJ
// parameters drawn from MtjVariationModel.  The only workload that
// reaches the spice layer.  The library reads one cell per call, so the
// 4-thread variant hands the reads out to the pool's threads one by one.
#include <algorithm>
#include <atomic>

#include "harness.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/sim/spice_read.hpp"

namespace e2e {
namespace {

using sttram::MtjState;

struct Read {
  bool destructive = false;
  MtjState state = MtjState::kParallel;
  sttram::MtjParams mtj;
  bool nominal = false;
};

struct Outcome {
  bool value = false;
  double margin = 0.0;
  double v_c1 = 0.0;
  bool restored = true;
};

Outcome read_once(const Read& r) {
  Outcome o;
  if (r.destructive) {
    sttram::DestructiveSpiceConfig cfg;
    cfg.mtj = r.mtj;
    cfg.state = r.state;
    const sttram::DestructiveSpiceResult res =
        sttram::simulate_destructive_read(cfg);
    o = {res.value, res.margin.value(), res.v_c1.value(), res.data_restored};
  } else {
    sttram::SpiceReadConfig cfg;
    cfg.mtj = r.mtj;
    cfg.state = r.state;
    const sttram::SpiceReadResult res =
        sttram::simulate_nondestructive_read(cfg);
    o = {res.value, res.margin.value(), res.v_c1.value(), true};
  }
  return o;
}

class SpiceWorkload final : public Workload {
 public:
  void setup(const Options& opt, Pools&) override {
    // Kinds and states alternate in a fixed pattern so every seed does
    // the same mix of work; the first four reads use the nominal device.
    // A full run is 128 reads, so a few stalled milliseconds on one core
    // are a small share of a 4-thread run.
    const std::size_t n = opt.tiny ? 8 : 128;
    const sttram::MtjVariationModel model(
        sttram::MtjParams::paper_calibrated(), sttram::VariationParams{});
    const sttram::Xoshiro256 master(opt.seed);
    reads_.assign(n, Read{});
    for (std::size_t i = 0; i < n; ++i) {
      Read& r = reads_[i];
      r.destructive = (i % 2) == 1;
      r.state = (i / 2) % 2 == 1 ? MtjState::kAntiParallel
                                 : MtjState::kParallel;
      r.nominal = i < 4;
      sttram::Xoshiro256 stream = master.fork(i);
      r.mtj = r.nominal ? model.nominal() : model.sample(stream);
    }
    outcomes_.assign(n, Outcome{});
    for (std::size_t i = 0; i < 4; ++i) read_once(reads_[i]);  // warm-up
  }

  [[nodiscard]] double items_per_run() const override {
    return static_cast<double>(reads_.size());
  }

  std::string run(sttram::ParallelExecutor& exec) override {
    // Each pool thread takes the next unread cell from a shared counter
    // instead of a fixed quarter of them: a read is about a millisecond,
    // so a core slowed by another tenant of the host reads fewer cells
    // rather than holding the whole run back.  Outcomes land by index,
    // so the digest does not depend on which thread read which cell.
    std::atomic<std::size_t> next{0};
    exec.for_chunks(exec.thread_count(),
                    [&](std::size_t, std::size_t, std::size_t) {
                      for (std::size_t i = next++; i < reads_.size();
                           i = next++) {
                        outcomes_[i] = read_once(reads_[i]);
                      }
                    });
    Digest d;
    for (const Outcome& o : outcomes_) {
      d.add(std::uint64_t{o.value}).add(o.margin).add(o.v_c1);
      d.add(std::uint64_t{o.restored});
    }
    return d.hex();
  }

  void verify(Pools&, Checks& checks) override {
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      const Read& r = reads_[i];
      const Outcome& o = outcomes_[i];
      const bool stored = r.state == MtjState::kAntiParallel;
      const std::string what =
          "spice: read " + std::to_string(i) + " (" +
          (r.destructive ? "destructive" : "nondestructive") + ", stored " +
          (stored ? "1" : "0") + ")";
      if (r.nominal) {
        checks.expect(o.value == stored, what + " decided the wrong bit");
      }
      checks.expect(o.restored, what + " did not restore the cell");
    }
  }

  Metrics trace(Pools& pools, Tracer& tracer, Checks& checks,
                double budget_s) override {
    const std::size_t min_each = budget_s > 0.0 ? 3 : 1;
    // Per-read latency by kind, serial.
    std::vector<double> nd_ms, d_ms;
    std::string digest;
    const auto pass_walls =
        alternate(1, 0.6 * budget_s, min_each, [&](std::size_t) {
          ladder(tracer, &nd_ms, &d_ms);
          Digest dg;
          for (const Outcome& o : outcomes_) dg.add(o.margin);
          if (digest.empty()) digest = dg.hex();
          checks.expect(dg.hex() == digest, "spice: traced passes disagree");
        });

    // The nondestructive read split into its public steps.
    std::vector<double> build_us, dc_ms, tran_ms;
    alternate(1, 0.2 * budget_s, min_each, [&](std::size_t) {
      tracer.begin_run();
      for (const Read& r : reads_) {
        if (r.destructive) continue;
        sttram::SpiceReadConfig cfg;
        cfg.mtj = r.mtj;
        cfg.state = r.state;
        sttram::spice::Circuit circuit;
        auto t0 = Clock::now();
        {
          Tracer::Scope s(tracer, "spice.build_circuit");
          sttram::build_nondestructive_read_circuit(circuit, cfg);
        }
        build_us.push_back(1e6 * seconds_since(t0));
        t0 = Clock::now();
        {
          Tracer::Scope s(tracer, "spice.solve_dc");
          sttram::spice::solve_dc(circuit);
        }
        dc_ms.push_back(1e3 * seconds_since(t0));
        sttram::spice::TransientOptions opt;
        opt.t_stop = cfg.t_stop;
        opt.dt = cfg.dt;
        t0 = Clock::now();
        {
          Tracer::Scope s(tracer, "spice.run_transient");
          sttram::spice::run_transient(circuit, opt);
        }
        tran_ms.push_back(1e3 * seconds_since(t0));
      }
    });

    // Solver counters over one serial pass with telemetry on.
    auto& reg = sttram::obs::Registry::instance();
    const char* const names[] = {
        "spice.newton.iterations", "spice.newton.solves",
        "spice.newton.factorizations", "spice.transient.steps_accepted",
        "spice.transient.steps_rejected"};
    std::uint64_t before[5], count[5];
    set_telemetry(true);
    for (int k = 0; k < 5; ++k) before[k] = reg.counter(names[k]).value();
    run(pools.t1);
    for (int k = 0; k < 5; ++k) {
      count[k] = reg.counter(names[k]).value() - before[k];
    }
    set_telemetry(false);
    const auto steps = static_cast<double>(count[3] + count[4]);

    Metrics m;
    m["spice.nd_read_ms.p50"] = {quantile(nd_ms, 0.5), "ms"};
    m["spice.nd_read_ms.p99"] = {quantile(nd_ms, 0.99), "ms"};
    m["spice.d_read_ms.p50"] = {quantile(d_ms, 0.5), "ms"};
    m["spice.d_read_ms.p99"] = {quantile(d_ms, 0.99), "ms"};
    m["spice.build_us"] = {median(build_us), "us"};
    m["spice.dc_ms"] = {median(dc_ms), "ms"};
    m["spice.transient_ms"] = {median(tran_ms), "ms"};
    m["spice.newton_per_step"] = {
        static_cast<double>(count[0]) / static_cast<double>(count[1]),
        "count"};
    m["spice.steps_rejected_frac"] = {
        steps > 0 ? static_cast<double>(count[4]) / steps : 0.0, "fraction"};
    m["spice.us_per_factorization"] = {
        1e6 * median(pass_walls[0]) / static_cast<double>(count[2]), "us"};
    return m;
  }

  void ladder_job(Pools&, Tracer& tracer) override {
    ladder(tracer, nullptr, nullptr);
  }

 private:
  /// One serial pass, a span per read; appends per-kind latencies.
  void ladder(Tracer& tracer, std::vector<double>* nd_ms,
              std::vector<double>* d_ms) {
    tracer.begin_run();
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      const Read& r = reads_[i];
      const auto t0 = Clock::now();
      {
        Tracer::Scope s(tracer,
                        r.destructive ? "sim.simulate_destructive_read"
                                      : "sim.simulate_nondestructive_read");
        outcomes_[i] = read_once(r);
      }
      std::vector<double>* out = r.destructive ? d_ms : nd_ms;
      if (out != nullptr) out->push_back(1e3 * seconds_since(t0));
    }
  }

  std::vector<Read> reads_;
  std::vector<Outcome> outcomes_;
};

}  // namespace

std::unique_ptr<Workload> make_spice_workload() {
  return std::make_unique<SpiceWorkload>();
}

}  // namespace e2e
