// Validation of the MNA circuit simulator against closed-form circuit
// theory: dividers, superposition, RC step response, level-1 MOSFET
// regions, the nonlinear MTJ element, and switches; and of its dense LU
// and MTJ Newton against the plain loops of spice_oracle, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spice_oracle.hpp"
#include "sttram/common/error.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"
#include "sttram/spice/elements.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

using spice::Capacitor;
using spice::Circuit;
using spice::CurrentSource;
using spice::Mosfet;
using spice::MtjElement;
using spice::NodeId;
using spice::PulseWaveform;
using spice::PwlWaveform;
using spice::Resistor;
using spice::Solution;
using spice::TimedSwitch;
using spice::VoltageSource;

/// A DC drive for a source element.
std::unique_ptr<spice::Waveform> dc(double value) {
  return std::make_unique<spice::DcWaveform>(value);
}

TEST(SpiceDc, VoltageDivider) {
  Circuit c;
  const NodeId top = c.node("top");
  const NodeId mid = c.node("mid");
  c.add<VoltageSource>("V1", top, Circuit::ground(), dc(10.0));
  c.add<Resistor>("R1", top, mid, 6000.0);
  c.add<Resistor>("R2", mid, Circuit::ground(), 4000.0);
  const Solution s = solve_dc(c);
  // gmin (1e-12 S per node) perturbs the ideal answer at the 1e-8 level.
  EXPECT_NEAR(s.voltage(mid), 4.0, 1e-7);
  EXPECT_NEAR(s.voltage(top), 10.0, 1e-12);
}

TEST(SpiceDc, VoltageSourceBranchCurrent) {
  Circuit c;
  const NodeId top = c.node("top");
  c.add<VoltageSource>("V1", top, Circuit::ground(), dc(5.0));
  c.add<Resistor>("R1", top, Circuit::ground(), 1000.0);
  const Solution s = solve_dc(c);
  // Convention: branch current flows + -> - through the source, so a
  // source driving a load reports a negative current of magnitude V/R.
  EXPECT_NEAR(s.branch_current(c.node_count(), 0), -5.0e-3, 1e-9);
}

TEST(SpiceDc, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add<CurrentSource>("I1", Circuit::ground(), n, dc(200e-6));
  c.add<Resistor>("R1", n, Circuit::ground(), 2500.0);
  const Solution s = solve_dc(c);
  EXPECT_NEAR(s.voltage(n), 0.5, 1e-8);
}

TEST(SpiceDc, SuperpositionOfTwoSources) {
  // Two current sources into a resistor mesh; check against hand-solved
  // nodal equations.
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<CurrentSource>("I1", Circuit::ground(), a, dc(1e-3));
  c.add<CurrentSource>("I2", Circuit::ground(), b, dc(2e-3));
  c.add<Resistor>("Ra", a, Circuit::ground(), 1000.0);
  c.add<Resistor>("Rab", a, b, 1000.0);
  c.add<Resistor>("Rb", b, Circuit::ground(), 1000.0);
  const Solution s = solve_dc(c);
  // G matrix: [[2, -1], [-1, 2]] mS; I = [1, 2] mA; V = [4/3, 5/3] V.
  EXPECT_NEAR(s.voltage(a), 4.0 / 3.0, 1e-8);
  EXPECT_NEAR(s.voltage(b), 5.0 / 3.0, 1e-8);
}

TEST(SpiceDc, FloatingNodeIsHeldByGmin) {
  Circuit c;
  const NodeId n = c.node("floating");
  c.add<Resistor>("R1", n, c.node("x"), 1000.0);
  // Node x itself also floats; gmin keeps the matrix solvable at ~0 V.
  const Solution s = solve_dc(c);
  EXPECT_NEAR(s.voltage(n), 0.0, 1e-6);
}

TEST(SpiceDc, SeriesResistorsThevenin) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  c.add<VoltageSource>("V", a, Circuit::ground(), dc(1.2));
  c.add<Resistor>("R1", a, b, 917.0);
  c.add<Resistor>("R2", b, Circuit::ground(), 2500.0);
  const Solution s = solve_dc(c);
  EXPECT_NEAR(s.voltage(b), 1.2 * 2500.0 / 3417.0, 1e-9);
}

TEST(SpiceTransient, RcStepResponse) {
  // V source steps 0 -> 1 V at t=1ns into R=1k, C=1pF (tau = 1 ns).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VoltageSource>(
      "V", in, Circuit::ground(),
      std::make_unique<PwlWaveform>(std::vector<double>{0.0, 1e-9, 1.001e-9},
                                    std::vector<double>{0.0, 0.0, 1.0}));
  c.add<Resistor>("R", in, out, 1000.0);
  c.add<Capacitor>("C", out, Circuit::ground(), 1e-12);
  spice::TransientOptions opt;
  opt.t_stop = 8e-9;
  opt.dt = 5e-12;
  const auto waves = run_transient(c, opt);
  // After 3 tau the output is within 5 % of final; after 7 tau, within
  // 0.1 %.
  const double v3t = waves.voltage_at(out, 4.001e-9);
  EXPECT_NEAR(v3t, 1.0 - std::exp(-3.0), 0.01);
  EXPECT_NEAR(waves.final_voltage(out), 1.0, 2e-3);
  // Crossing time of the 50 % level ~= ln(2) tau after the step.
  const double t50 = waves.crossing_time(out, 0.5, +1);
  EXPECT_NEAR(t50 - 1.001e-9, std::log(2.0) * 1e-9, 5e-11);
}

TEST(SpiceTransient, CapacitorHoldsChargeWhenIsolated) {
  // Charge a capacitor through a switch, open the switch, check droop is
  // tiny (only gmin leaks).
  Circuit c;
  const NodeId src = c.node("src");
  const NodeId cap = c.node("cap");
  c.add<VoltageSource>("V", src, Circuit::ground(), dc(1.0));
  c.add<TimedSwitch>("S", src, cap, true,
                     std::vector<std::pair<double, bool>>{{5e-9, false}},
                     100.0);
  c.add<Capacitor>("C", cap, Circuit::ground(), 250e-15);
  spice::TransientOptions opt;
  opt.t_stop = 20e-9;
  opt.dt = 2e-11;
  const auto waves = run_transient(c, opt);
  EXPECT_NEAR(waves.voltage_at(cap, 4.9e-9), 1.0, 1e-3);
  // 15 ns of hold with gmin=1e-12 S on 250 fF: droop < 0.1 mV.
  EXPECT_NEAR(waves.final_voltage(cap), 1.0, 1e-4);
}

TEST(SpiceTransient, PulseWaveformShape) {
  const PulseWaveform p(0.0, 1.2, 2e-9, 6e-9, 1e-9, 1e-9);
  EXPECT_DOUBLE_EQ(p.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.at(2.5e-9), 0.6);
  EXPECT_DOUBLE_EQ(p.at(4e-9), 1.2);
  EXPECT_DOUBLE_EQ(p.at(6.5e-9), 0.6);
  EXPECT_DOUBLE_EQ(p.at(10e-9), 0.0);
}

TEST(SpiceMosfet, TriodeRegionResistance) {
  // Level-1 NMOS sized for ~917 Ohm at vgs=1.2, vth=0.45: at small vds
  // the channel behaves as that resistance.
  Mosfet::Params p;
  p.vth = 0.45;
  p.lambda = 0.0;
  p.beta = 1.0 / (917.0 * 0.75);
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VoltageSource>("Vg", g, Circuit::ground(), dc(1.2));
  c.add<CurrentSource>("Id", Circuit::ground(), d, dc(200e-6));
  c.add<Mosfet>("M1", d, g, Circuit::ground(), p);
  const Solution s = solve_dc(c);
  // v_ds ~= I * R_on with a small triode correction upward.
  const double r_eff = s.voltage(d) / 200e-6;
  EXPECT_GT(r_eff, 917.0);
  EXPECT_LT(r_eff, 1.2 * 917.0);
}

TEST(SpiceMosfet, CutoffBlocksCurrent) {
  Mosfet::Params p;
  p.vth = 0.45;
  p.beta = 2e-3;
  Circuit c;
  const NodeId d = c.node("d");
  c.add<Resistor>("Rload", c.node("vdd"), d, 1000.0);
  c.add<VoltageSource>("Vdd", c.node("vdd"), Circuit::ground(), dc(1.2));
  c.add<Mosfet>("M1", d, Circuit::ground(), Circuit::ground(), p);
  const Solution s = solve_dc(c);
  // Gate grounded -> cutoff -> drain pulled to VDD.
  EXPECT_NEAR(s.voltage(d), 1.2, 1e-3);
}

TEST(SpiceMosfet, SaturationCurrentMatchesSquareLaw) {
  Mosfet::Params p;
  p.vth = 0.45;
  p.lambda = 0.0;
  p.beta = 2e-3;
  const Mosfet m("m", 0, 1, 2, p);
  const auto op = m.evaluate(1.0, 1.5);  // vgs=1.0 > vth, vds > vov
  EXPECT_NEAR(op.ids, 0.5 * 2e-3 * 0.55 * 0.55, 1e-9);
  EXPECT_NEAR(op.gm, 2e-3 * 0.55, 1e-9);
}

TEST(SpiceMosfet, EvaluateContinuousAtTriodeSaturationBoundary) {
  Mosfet::Params p;
  p.vth = 0.45;
  p.lambda = 0.05;
  p.beta = 2e-3;
  const Mosfet m("m", 0, 1, 2, p);
  const double vov = 0.55;
  const auto triode = m.evaluate(1.0, vov - 1e-9);
  const auto sat = m.evaluate(1.0, vov + 1e-9);
  EXPECT_NEAR(triode.ids, sat.ids, 1e-8);
}

TEST(SpiceMtj, NonlinearResistanceMatchesModel) {
  // Force 200 uA through the MTJ element; voltage must equal
  // I * R(state, I) from the device model.
  const MtjParams params = MtjParams::paper_calibrated();
  const LinearRiModel model(params);
  for (const MtjState state :
       {MtjState::kParallel, MtjState::kAntiParallel}) {
    Circuit c;
    const NodeId n = c.node("n");
    c.add<CurrentSource>("I", Circuit::ground(), n, dc(200e-6));
    c.add<MtjElement>("MTJ", n, Circuit::ground(), model, state);
    const Solution s = solve_dc(c);
    const double expected =
        200e-6 * model.resistance(state, Ampere(200e-6)).value();
    EXPECT_NEAR(s.voltage(n), expected, 1e-6)
        << "state=" << to_string(state);
  }
}

TEST(SpiceMtj, CurrentForVoltageInverts) {
  const MtjParams params = MtjParams::paper_calibrated();
  const LinearRiModel model(params);
  const MtjElement e("m", 0, 1, model, MtjState::kAntiParallel);
  const double v = 0.38;  // ~high-state voltage at I_max
  const auto [i, i_neg] = e.currents_for_voltages(v, -v);
  const double back = i * model.resistance(MtjState::kAntiParallel,
                                           Ampere(i))
                              .value();
  EXPECT_NEAR(back, v, 1e-9);
  EXPECT_NEAR(i_neg, -i, 1e-12);
  EXPECT_DOUBLE_EQ(e.currents_for_voltages(0.0, v)[0], 0.0);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Element voltages for the MTJ oracle checks in state `s`: zero, the
/// smallest finite-difference step, read-level biases, write-level
/// biases past the law's clamp at 1.5 i_ref, and biases v0 whose
/// v0 + dv crosses that clamp; each with both signs.
std::vector<double> mtj_voltages(const LinearRiModel& model, MtjState s) {
  const double i_clamp = 1.5 * model.params().i_droop_ref.value();
  const double v_clamp = i_clamp * model.ohms(s, i_clamp);
  std::vector<double> out;
  for (const double v : {0.0, 1e-12, 0.05, 0.38, 1.5 * v_clamp, 4.0,
                         v_clamp, v_clamp - 1e-7, v_clamp + 1e-7,
                         v_clamp - 4e-7, std::nextafter(v_clamp, 0.0)}) {
    out.push_back(v);
    out.push_back(-v);
  }
  return out;
}

TEST(SpiceMtj, PairedCurrentsMatchScalarNewtonBitwise) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  for (const MtjParams& params : {nominal, nominal.scaled(1.13, 0.87)}) {
    const LinearRiModel model(params);
    for (const MtjState state :
         {MtjState::kParallel, MtjState::kAntiParallel}) {
      const MtjElement e("m", 0, 1, model, state);
      const std::vector<double> volts = mtj_voltages(model, state);
      for (const double va : volts) {
        for (const double vb : volts) {
          const auto got = e.currents_for_voltages(va, vb);
          const double want_a = oracle::mtj_current(model, state, va);
          const double want_b = oracle::mtj_current(model, state, vb);
          ASSERT_EQ(bits(got[0]), bits(want_a))
              << to_string(state) << " v = " << std::hexfloat << va
              << " beside " << vb;
          ASSERT_EQ(bits(got[1]), bits(want_b))
              << to_string(state) << " v = " << std::hexfloat << vb
              << " beside " << va;
        }
      }
    }
  }
}

TEST(SpiceMtj, StampMatchesScalarFormulaBitwise) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  for (const MtjParams& params : {nominal, nominal.scaled(1.13, 0.87)}) {
    const LinearRiModel model(params);
    for (const MtjState state :
         {MtjState::kParallel, MtjState::kAntiParallel}) {
      const MtjElement e("m", 0, 1, model, state);
      for (const double v0 : mtj_voltages(model, state)) {
        // The element between nodes 0 and 1 at v(0) = v0, v(1) = 0, and
        // the oracle's g and ieq stamped the same way.
        spice::Matrix a(2, 2), a_want(2, 2);
        std::vector<double> b(2, 0.0), b_want(2, 0.0);
        const std::vector<double> x = {v0, 0.0};
        spice::StampContext ctx;
        ctx.x = &x;
        spice::MnaStamper mna(a, b, 2);
        e.stamp(mna, ctx);
        const oracle::MtjStamp want = oracle::mtj_stamp(model, state, v0);
        spice::MnaStamper mna_want(a_want, b_want, 2);
        mna_want.conductance(0, 1, want.g);
        mna_want.current_into(0, -want.ieq);
        mna_want.current_into(1, want.ieq);
        for (std::size_t r = 0; r < 2; ++r) {
          for (std::size_t c = 0; c < 2; ++c) {
            EXPECT_EQ(bits(a(r, c)), bits(a_want(r, c)))
                << to_string(state) << " v0 = " << std::hexfloat << v0;
          }
          EXPECT_EQ(bits(b[r]), bits(b_want[r]))
              << to_string(state) << " v0 = " << std::hexfloat << v0;
        }
      }
    }
  }
}

TEST(SpiceSwitch, ScheduleAndResistance) {
  TimedSwitch s("s", 0, 1, false,
                {{1e-9, true}, {5e-9, false}, {7e-9, true}}, 100.0);
  EXPECT_FALSE(s.closed_at(0.5e-9));
  EXPECT_TRUE(s.closed_at(1e-9));
  EXPECT_TRUE(s.closed_at(3e-9));
  EXPECT_FALSE(s.closed_at(5.5e-9));
  EXPECT_TRUE(s.closed_at(8e-9));
}

TEST(SpiceCircuit, NodeNamesAndGroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), spice::kGround);
  EXPECT_EQ(c.node("gnd"), spice::kGround);
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);  // idempotent
  EXPECT_EQ(c.node_name(a), "a");
  EXPECT_EQ(c.node_name(spice::kGround), "0");
  EXPECT_EQ(c.node_count(), 1u);
}

TEST(SpiceCircuit, FindElementByName) {
  Circuit c;
  c.add<Resistor>("R1", c.node("a"), Circuit::ground(), 1.0e3);
  EXPECT_NE(c.find("R1"), nullptr);
  EXPECT_EQ(c.find("R2"), nullptr);
}

/// Runs lu_factor_in_place on `a` and expects the singular-matrix error,
/// naming the function.
void expect_singular(spice::Matrix a, const std::string& what) {
  std::vector<std::size_t> perm;
  try {
    spice::lu_factor_in_place(a, perm);
    ADD_FAILURE() << what << ": no error";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "lu_factor_in_place: singular MNA matrix"),
              std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(SpiceMatrix, SingularMatrixThrows) {
  spice::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;  // rank 1
  expect_singular(a, "2x2");
  // A floating node: a zero column, at the first, a middle and the last
  // elimination step of the two unrolled orders.
  for (const std::size_t n : {std::size_t{7}, std::size_t{8}}) {
    for (const std::size_t dead : {std::size_t{0}, n / 2, n - 1}) {
      spice::Matrix m(n, n);
      Xoshiro256 rng(n * 31 + dead);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.next_double();
        m(r, r) += static_cast<double>(n);
      }
      for (std::size_t r = 0; r < n; ++r) m(r, dead) = 0.0;
      expect_singular(m, std::to_string(n) + "x" + std::to_string(n) +
                             ", column " + std::to_string(dead));
    }
  }
}

/// A random MNA-like matrix of the given order: `branches` voltage-source
/// rows (zero diagonal) after the node rows, gmin on every node,
/// conductances between random node pairs drawn half from a few fixed
/// values (so magnitudes tie) and half at random, most entries zero.
spice::Matrix random_mna(std::size_t order, std::size_t branches,
                         Xoshiro256& rng) {
  spice::Matrix a(order, order);
  std::vector<double> rhs(order, 0.0);
  const std::size_t nodes = order - branches;
  spice::MnaStamper mna(a, rhs, nodes);
  const auto pick = [&](std::size_t count) {
    return static_cast<NodeId>(rng.next_u64() % count);
  };
  for (std::size_t k = 0; k < nodes; ++k) a(k, k) += 1e-12;
  constexpr double kTied[] = {1e-3, 2e-3, 0.5};
  for (std::size_t e = 0; e < 2 * order; ++e) {
    const NodeId p = pick(nodes);
    // One draw in nodes + 1 lands on ground.
    NodeId q = pick(nodes + 1);
    if (q == static_cast<NodeId>(nodes)) q = spice::kGround;
    if (p == q) continue;
    const double g = rng.next_double() < 0.5 ? kTied[rng.next_u64() % 3]
                                             : 1e-4 + 1e-2 * rng.next_double();
    mna.conductance(p, q, g);
  }
  // Branch j holds node nodes - 1 - j against ground.
  for (std::size_t j = 0; j < branches; ++j) {
    mna.voltage_source(static_cast<int>(j),
                       static_cast<NodeId>(nodes - 1 - j), spice::kGround,
                       1.0);
  }
  return a;
}

/// Factors and solves `a` with the library and with the oracle and
/// compares factors, permutation, smallest pivot and solution bitwise.
/// Returns true when the oracle swapped a row.
bool expect_lu_matches_oracle(const spice::Matrix& a, Xoshiro256& rng,
                              const std::string& what) {
  const std::size_t n = a.rows();
  spice::Matrix lu = a;
  spice::Matrix want = a;
  std::vector<std::size_t> perm, perm_want;
  double min_want = 0.0;
  try {
    min_want = oracle::lu_factor(want, perm_want);
  } catch (const CircuitError&) {
    EXPECT_THROW(spice::lu_factor_in_place(lu, perm), CircuitError) << what;
    return false;
  }
  const double min_pivot = spice::lu_factor_in_place(lu, perm);
  EXPECT_EQ(bits(min_pivot), bits(min_want)) << what;
  EXPECT_EQ(perm, perm_want) << what;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (bits(lu(r, c)) != bits(want(r, c))) {
        ADD_FAILURE() << what << ": factor (" << r << ", " << c << ") "
                      << std::hexfloat << lu(r, c) << " vs " << want(r, c);
        return false;
      }
    }
  }
  // A right-hand side with some exact zeros, as unstamped rows leave.
  std::vector<double> b(n);
  for (double& v : b) {
    v = rng.next_double() < 0.3 ? 0.0 : rng.next_double() - 0.5;
  }
  std::vector<double> x(n), x_want(n);
  spice::lu_solve_in_place(lu, perm, b, x);
  oracle::lu_solve(want, perm_want, b, x_want);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(bits(x[k]), bits(x_want[k]))
        << what << ": x[" << k << "] " << std::hexfloat << x[k] << " vs "
        << x_want[k];
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (perm_want[k] != k) return true;
  }
  return false;
}

TEST(SpiceMatrix, FactorAndSolveMatchOracleBitwise) {
  for (const std::size_t n : {2, 5, 7, 8, 9, 16}) {
    Xoshiro256 rng(1000 + n);
    int swapped = 0;
    for (int trial = 0; trial < 48; ++trial) {
      const std::size_t branches = n < 3 ? 1 : 1 + trial % 2;
      spice::Matrix a = random_mna(n, branches, rng);
      const std::string what =
          "order " + std::to_string(n) + " trial " + std::to_string(trial);
      switch (trial % 4) {
        case 1: {
          // A zero diagonal first: move a row with no entry in column 0
          // (the last branch row's, unless its branch holds node 0) to
          // the top.
          std::size_t r = n - 1;
          while (r > 0 && a(r, 0) != 0.0) --r;
          for (std::size_t c = 0; r > 0 && c < n; ++c) {
            std::swap(a(0, c), a(r, c));
          }
          break;
        }
        case 2:
          // A row below ties the diagonal's magnitude: the diagonal,
          // the first maximum, must stay the pivot.
          a(n - 1, 0) = -a(0, 0);
          break;
        case 3: {
          // Two rows below tie above the diagonal: the upper one wins.
          const double m = 2.0 * std::fabs(a(0, 0)) + 1.0;
          a(n / 2, 0) = -m;
          a(n - 1, 0) = m;
          break;
        }
        default:
          break;
      }
      if (expect_lu_matches_oracle(a, rng, what)) ++swapped;
    }
    EXPECT_GT(swapped, 0) << "order " << n << ": no pivot swap exercised";
  }
}

TEST(SpiceMatrix, SolvesKnownSystem) {
  spice::Matrix a(3, 3);
  // A = [[4,1,0],[1,3,1],[0,1,2]]; x = [1,2,3]; b = A x = [6, 10, 8].
  a(0, 0) = 4; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 1;
  a(2, 1) = 1; a(2, 2) = 2;
  std::vector<std::size_t> perm;
  spice::lu_factor_in_place(a, perm);
  const std::vector<double> b = {6.0, 10.0, 8.0};
  std::vector<double> x(3);
  spice::lu_solve_in_place(a, perm, b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(SpiceDcSweep, ReproducesMtjRiCurve) {
  // Sweep the forced read current through a 1T1J branch and recover the
  // Fig. 2 R-I curve from the swept operating points.
  const MtjParams params = MtjParams::paper_calibrated();
  const LinearRiModel model(params);
  Circuit c;
  const NodeId bl = c.node("bl");
  c.add<CurrentSource>("Iread", Circuit::ground(), bl, dc(0.0));
  c.add<MtjElement>("J", bl, Circuit::ground(), model,
                    MtjState::kAntiParallel);
  const std::vector<double> currents = {10e-6, 50e-6, 100e-6, 200e-6};
  const auto points = dc_sweep(c, "Iread", currents);
  ASSERT_EQ(points.size(), currents.size());
  for (std::size_t k = 0; k < currents.size(); ++k) {
    const double r = points[k].voltage(bl) / currents[k];
    const double expected =
        model.resistance(MtjState::kAntiParallel, Ampere(currents[k]))
            .value();
    EXPECT_NEAR(r, expected, 0.01 * expected) << "I=" << currents[k];
  }
}

TEST(SpiceDcSweep, SweepsVoltageSourcesAndValidates) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V1", a, Circuit::ground(), dc(1.0));
  c.add<Resistor>("R1", a, Circuit::ground(), 1000.0);
  const auto pts = dc_sweep(c, "V1", {0.5, 1.5});
  EXPECT_NEAR(pts[0].voltage(a), 0.5, 1e-9);
  EXPECT_NEAR(pts[1].voltage(a), 1.5, 1e-9);
  EXPECT_THROW(dc_sweep(c, "nope", {1.0}), CircuitError);
  EXPECT_THROW(dc_sweep(c, "R1", {1.0}), CircuitError);
}

TEST(SpiceLeakage, LumpedModelMatchesExplicitUnselectedCells) {
  // The Fig. 10 netlist lumps the 127 unselected cells' leakage into one
  // resistor at the sense node.  Validate the lumping against a bit line
  // with explicit distributed leakage paths (MTJ + off-path per node)
  // along a segmented wire.
  const MtjParams params = MtjParams::paper_calibrated();
  const LinearRiModel model(params);
  constexpr int kCells = 8;
  constexpr double kROff = 50e6;
  constexpr double kWirePerSeg = 32.0;

  const auto build = [&](bool explicit_cells) {
    Circuit c;
    const NodeId sense = c.node("sense");
    c.add<CurrentSource>("I", Circuit::ground(), sense, dc(200e-6));
    NodeId prev = sense;
    for (int k = 0; k < kCells; ++k) {
      const NodeId node = c.node(std::string("n").append(std::to_string(k)));
      c.add<Resistor>("Rw" + std::to_string(k), prev, node, kWirePerSeg);
      if (explicit_cells) {
        // Unselected cell: its MTJ in series with the off transistor.
        const NodeId mid = c.node("m" + std::to_string(k));
        c.add<MtjElement>("J" + std::to_string(k), node, mid, model,
                          k % 2 == 0 ? MtjState::kParallel
                                     : MtjState::kAntiParallel);
        c.add<Resistor>("Roff" + std::to_string(k), mid, Circuit::ground(),
                        kROff);
      }
      prev = node;
    }
    // Selected cell at the far end.
    const NodeId mid = c.node("selmid");
    c.add<MtjElement>("Jsel", prev, mid, model, MtjState::kAntiParallel);
    c.add<Resistor>("Rt", mid, Circuit::ground(), 917.0);
    if (!explicit_cells) {
      c.add<Resistor>("Rlump", sense, Circuit::ground(),
                      kROff / static_cast<double>(kCells));
    }
    const Solution s = solve_dc(c);
    return s.voltage(sense);
  };

  const double v_explicit = build(true);
  const double v_lumped = build(false);
  EXPECT_NEAR(v_lumped, v_explicit, 0.01 * v_explicit);
}

TEST(SpiceWaveform, PwlClampsAndInterpolates) {
  const PwlWaveform w({1.0, 2.0, 4.0}, {0.0, 10.0, 10.0});
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.at(1.5), 5.0);
  EXPECT_DOUBLE_EQ(w.at(3.0), 10.0);
  EXPECT_DOUBLE_EQ(w.at(9.0), 10.0);
  EXPECT_THROW(PwlWaveform({1.0, 1.0}, {0.0, 1.0}), InvalidArgument);
}

TEST(SpiceTransient, ResultInterpolationAndBounds) {
  spice::TransientResult r({"n0"}, 1);
  r.append(0.0, std::vector<double>{0.0});
  r.append(1.0, std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(r.voltage_at(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(r.voltage_at(0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.voltage_at(0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.voltage(spice::kGround, 0), 0.0);
  EXPECT_THROW(r.append(0.5, std::vector<double>{1.0}), InvalidArgument);
  EXPECT_LT(r.crossing_time(0, 5.0, +1), 0.0);  // never crosses
}

}  // namespace
}  // namespace sttram
