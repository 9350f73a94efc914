// Tests of the transient integrators: trapezoidal accuracy order,
// adaptive step control, breakpoint handling, and history consistency;
// and of the per-analysis solver workspace: reuse across analyses on one
// thread, recovery after a mid-analysis CircuitError, DC sweeps and
// concurrent analyses on several threads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"
#include "sttram/spice/elements.hpp"
#include "sttram/spice/parser.hpp"
#include "sttram/stats/rng.hpp"

#ifndef STTRAM_DECK_DIR
#define STTRAM_DECK_DIR "tests/decks"
#endif

namespace sttram {
namespace {

using spice::Capacitor;
using spice::Circuit;
using spice::Integrator;
using spice::NodeId;
using spice::PwlWaveform;
using spice::Resistor;
using spice::TimedSwitch;
using spice::TransientOptions;
using spice::VoltageSource;

/// RC charging circuit with tau = 1 ns, step at t = 0+ via initial
/// condition mismatch: source at 1 V from t=0, cap starts at DC (1 V)...
/// so instead drive with a PWL step shortly after t=0.
struct RcFixture {
  Circuit c;
  NodeId out;
  double t_step = 0.2e-9;

  RcFixture() {
    const NodeId in = c.node("in");
    out = c.node("out");
    c.add<VoltageSource>(
        "V", in, Circuit::ground(),
        std::make_unique<PwlWaveform>(
            std::vector<double>{0.0, t_step, t_step + 1e-12},
            std::vector<double>{0.0, 0.0, 1.0}));
    c.add<Resistor>("R", in, out, 1000.0);
    c.add<Capacitor>("C", out, Circuit::ground(), 1e-12);
  }

  /// Max |v(t) - exact| over the charging window for a given config.
  double max_error(Integrator method, double dt, bool adaptive = false,
                   double lte = 1e-4) {
    TransientOptions opt;
    opt.t_stop = 6e-9;
    opt.dt = dt;
    opt.integrator = method;
    opt.adaptive = adaptive;
    opt.lte_tol = lte;
    const auto waves = run_transient(c, opt);
    double err = 0.0;
    for (double t = t_step + 0.3e-9; t < 6e-9; t += 0.1e-9) {
      const double exact = 1.0 - std::exp(-(t - t_step - 1e-12) / 1e-9);
      err = std::max(err, std::fabs(waves.voltage_at(out, t) - exact));
    }
    return err;
  }
};

TEST(TransientIntegrators, TrapezoidalBeatsBackwardEulerAtSameStep) {
  RcFixture f1, f2;
  const double dt = 0.1e-9;
  const double err_be = f1.max_error(Integrator::kBackwardEuler, dt);
  const double err_tr = f2.max_error(Integrator::kTrapezoidal, dt);
  EXPECT_LT(err_tr, 0.4 * err_be);
  EXPECT_LT(err_tr, 2e-3);
}

TEST(TransientIntegrators, BackwardEulerIsFirstOrder) {
  RcFixture a, b;
  const double e1 = a.max_error(Integrator::kBackwardEuler, 0.2e-9);
  const double e2 = b.max_error(Integrator::kBackwardEuler, 0.1e-9);
  // Halving dt should roughly halve the error (order 1).
  EXPECT_NEAR(e1 / e2, 2.0, 0.7);
}

TEST(TransientIntegrators, TrapezoidalIsSecondOrder) {
  RcFixture a, b;
  const double e1 = a.max_error(Integrator::kTrapezoidal, 0.4e-9);
  const double e2 = b.max_error(Integrator::kTrapezoidal, 0.2e-9);
  // Halving dt should cut the error ~4x (order 2).
  EXPECT_GT(e1 / e2, 2.5);
}

TEST(TransientIntegrators, AdaptiveMeetsToleranceWithFewerSteps) {
  RcFixture fixed_f, adaptive_f;
  TransientOptions fixed;
  fixed.t_stop = 6e-9;
  fixed.dt = 0.02e-9;
  fixed.integrator = Integrator::kTrapezoidal;
  const auto waves_fixed = run_transient(fixed_f.c, fixed);

  TransientOptions ad = fixed;
  ad.adaptive = true;
  ad.dt = 0.02e-9;
  ad.lte_tol = 5e-4;
  const auto waves_ad = run_transient(adaptive_f.c, ad);
  // The adaptive run takes meaningfully fewer samples...
  EXPECT_LT(waves_ad.sample_count(), waves_fixed.sample_count() * 3 / 4);
  // ...while staying accurate.
  EXPECT_LT(adaptive_f.max_error(Integrator::kTrapezoidal, 0.02e-9, true,
                                 5e-4),
            5e-3);
}

TEST(TransientIntegrators, BreakpointsAreHitExactly) {
  // A switch event at an "awkward" time must appear as a sample even
  // with a coarse step, so the event is not smeared.
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V", a, Circuit::ground(),
                       std::make_unique<spice::DcWaveform>(1.0));
  const NodeId b = c.node("b");
  c.add<TimedSwitch>("S", a, b, false,
                     std::vector<std::pair<double, bool>>{{1.37e-9, true}},
                     100.0);
  c.add<Resistor>("RL", b, Circuit::ground(), 1000.0);
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 0.5e-9;  // would step right past 1.37 ns
  const auto waves = run_transient(c, opt);
  bool hit = false;
  for (const double t : waves.times()) {
    if (std::fabs(t - 1.37e-9) < 1e-15) hit = true;
  }
  EXPECT_TRUE(hit);
  // Before the event: open; after: divider of r_on vs load.
  EXPECT_NEAR(waves.voltage_at(b, 1.3e-9), 0.0, 1e-3);
  EXPECT_NEAR(waves.voltage_at(b, 2.9e-9), 1000.0 / 1100.0, 1e-3);
}

TEST(TransientIntegrators, CapacitorHistoryResets) {
  Capacitor cap("c", 0, spice::kGround, 1e-12);
  EXPECT_DOUBLE_EQ(cap.history_current(), 0.0);
  cap.reset_history();
  EXPECT_DOUBLE_EQ(cap.history_current(), 0.0);
}

TEST(TransientIntegrators, TrapezoidalMatchesBackwardEulerSteadyState) {
  RcFixture be_f, tr_f;
  TransientOptions opt;
  opt.t_stop = 10e-9;
  opt.dt = 0.05e-9;
  opt.integrator = Integrator::kBackwardEuler;
  const auto be = run_transient(be_f.c, opt);
  opt.integrator = Integrator::kTrapezoidal;
  const auto tr = run_transient(tr_f.c, opt);
  EXPECT_NEAR(be.final_voltage(be_f.out), tr.final_voltage(tr_f.out), 5e-5);
  EXPECT_NEAR(tr.final_voltage(tr_f.out), 1.0, 1e-4);
}

// ------------------------------------------------------ solver workspace

spice::ParsedDeck load_deck(const std::string& name) {
  const std::string path = std::string(STTRAM_DECK_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing deck " << path;
  return spice::parse_spice_deck(in);
}

/// Every time and every solution value of a waveform, as bit patterns.
std::vector<std::uint64_t> bits_of(const spice::TransientResult& w) {
  std::vector<std::uint64_t> out;
  for (std::size_t k = 0; k < w.sample_count(); ++k) {
    out.push_back(std::bit_cast<std::uint64_t>(w.time(k)));
    for (const double v : w.sample(k)) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& x) {
  std::vector<std::uint64_t> out;
  for (const double v : x) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Read i of a fixed mix: even reads nondestructive, odd destructive,
/// stored state alternating in pairs.  Returns the full waveform bits.
std::vector<std::uint64_t> read_bits(const MtjParams& mtj, std::size_t i) {
  const MtjState state = (i / 2) % 2 == 1 ? MtjState::kAntiParallel
                                          : MtjState::kParallel;
  if (i % 2 == 1) {
    DestructiveSpiceConfig cfg;
    cfg.mtj = mtj;
    cfg.state = state;
    return bits_of(simulate_destructive_read(cfg).waves);
  }
  SpiceReadConfig cfg;
  cfg.mtj = mtj;
  cfg.state = state;
  return bits_of(simulate_nondestructive_read(cfg).waves);
}

TEST(SolverWorkspace, AlternatingAnalysesRepeatBitForBit) {
  // A parsed deck, a nondestructive and a destructive read, twice over on
  // one thread: no analysis may leave state behind for the next.
  const auto pass = [] {
    std::vector<std::vector<std::uint64_t>> out;
    spice::ParsedDeck deck = load_deck("read_phase2.sp");
    EXPECT_TRUE(deck.tran.has_value());
    out.push_back(bits_of(run_transient(deck.circuit, *deck.tran)));
    out.push_back(read_bits(MtjParams::paper_calibrated(), 2));
    out.push_back(read_bits(MtjParams::paper_calibrated(), 3));
    return out;
  };
  const auto first = pass();
  const auto second = pass();
  ASSERT_EQ(first.size(), 3u);
  for (const auto& w : first) EXPECT_GT(w.size(), 100u);
  EXPECT_EQ(first, second);
}

/// A DC voltage source that drops out of the MNA system at `t_fail`: its
/// branch row and column stay empty from then on, so the matrix turns
/// singular part-way through a transient.
class VanishingSource final : public spice::Element {
 public:
  VanishingSource(NodeId pos, double volts, double t_fail)
      : Element("Vgone"), pos_(pos), volts_(volts), t_fail_(t_fail) {}

  void stamp(spice::MnaStamper& mna,
             const spice::StampContext& ctx) const override {
    if (ctx.time < t_fail_) {
      mna.voltage_source(branch_base(), pos_, spice::kGround, volts_);
    }
  }
  [[nodiscard]] int branch_count() const override { return 1; }

 private:
  NodeId pos_;
  double volts_;
  double t_fail_;
};

TEST(SolverWorkspace, SingularMidAnalysisLeavesNextRunIntact) {
  const auto reference = read_bits(MtjParams::paper_calibrated(), 0);

  Circuit bad;
  const NodeId in = bad.node("in");
  const NodeId out = bad.node("out");
  bad.add<VanishingSource>(in, 1.0, 1e-9);
  bad.add<Resistor>("R", in, out, 1000.0);
  bad.add<Capacitor>("C", out, Circuit::ground(), 1e-12);
  EXPECT_NO_THROW(solve_dc(bad));  // sound at t = 0
  TransientOptions opt;
  opt.t_stop = 2e-9;
  opt.dt = 0.05e-9;
  EXPECT_THROW(run_transient(bad, opt), CircuitError);

  EXPECT_EQ(read_bits(MtjParams::paper_calibrated(), 0), reference);
}

TEST(SolverWorkspace, DcSweepMatchesPointSolves) {
  // One workspace serves the whole sweep; each point must equal a solve
  // of its own.
  spice::ParsedDeck sweep = load_deck("read_phase2.sp");
  const std::vector<double> amps{20e-6, 80e-6, 140e-6, 200e-6};
  const std::vector<spice::Solution> swept =
      dc_sweep(sweep.circuit, "I1", amps);
  ASSERT_EQ(swept.size(), amps.size());
  for (std::size_t k = 0; k < amps.size(); ++k) {
    spice::ParsedDeck point = load_deck("read_phase2.sp");
    auto* source = dynamic_cast<spice::CurrentSource*>(point.circuit.find("I1"));
    ASSERT_NE(source, nullptr);
    source->set_waveform(std::make_unique<spice::DcWaveform>(amps[k]));
    EXPECT_EQ(bits_of(swept[k].x), bits_of(solve_dc(point.circuit).x))
        << "I1 = " << amps[k];
  }
  // The bias moves the operating point.
  const NodeId bl = sweep.circuit.node("bl");
  EXPECT_LT(swept.front().voltage(bl), swept.back().voltage(bl));
}

TEST(SolverWorkspace, ConcurrentReadsMatchSerial) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams{});
  Xoshiro256 rng(7);
  std::vector<MtjParams> devices;
  for (int i = 0; i < 8; ++i) devices.push_back(model.sample(rng));

  std::vector<std::vector<std::uint64_t>> serial(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    serial[i] = read_bits(devices[i], i);
  }

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::uint64_t>> parallel(devices.size());
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < devices.size(); i += kThreads) {
          parallel[i] = read_bits(devices[i], i);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::string& e : errors) EXPECT_EQ(e, "");
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace sttram
