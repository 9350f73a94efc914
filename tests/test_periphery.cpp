// Peripheral read/write circuitry at circuit level: the ratioed
// current-mirror read driver that realizes beta = I_R2/I_R1 (grounding
// the robustness analysis's sigma_beta physically) and the H-bridge
// write driver that delivers the bidirectional write current.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "sttram/common/error.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"
#include "sttram/spice/elements.hpp"

namespace sttram {
namespace {

using spice::Circuit;
using spice::CurrentSource;
using spice::Mosfet;
using spice::MtjElement;
using spice::NodeId;
using spice::Resistor;
using spice::Solution;
using spice::TimedSwitch;
using spice::VoltageSource;

/// A DC drive for a source element.
std::unique_ptr<spice::Waveform> dc(double value) {
  return std::make_unique<spice::DcWaveform>(value);
}

/// Level-1 PMOS transistor, body tied to source: the NMOS model of
/// spice::Mosfet evaluated on negated voltages.  Conducts when
/// vgs < -vth; current flows source -> drain.  The peripheral circuits
/// below (current mirrors, write drivers) need it; no library netlist
/// does.
class Pmos final : public spice::Element {
 public:
  struct Params {
    double beta = 2e-3;   ///< uCox * W/L [A/V^2]
    double vth = 0.45;    ///< threshold voltage magnitude [V]
    double lambda = 0.05; ///< channel-length modulation [1/V]
  };

  Pmos(std::string name, NodeId drain, NodeId gate, NodeId source,
       Params params)
      : Element(std::move(name)),
        d_(drain),
        g_(gate),
        s_(source),
        mirror_("", Circuit::ground(), Circuit::ground(), Circuit::ground(),
                Mosfet::Params{params.beta, params.vth, params.lambda}) {
    require(params.beta > 0.0, "Pmos: beta must be > 0");
    require(params.lambda >= 0.0, "Pmos: lambda must be >= 0");
  }

  void stamp(spice::MnaStamper& mna,
             const spice::StampContext& ctx) const override {
    // Evaluate the mirrored NMOS on source-referenced, sign-flipped
    // voltages.
    double vs = ctx.v(s_);
    double vd = ctx.v(d_);
    const double vg = ctx.v(g_);
    NodeId s = s_, d = d_;
    if (vs < vd) {  // symmetric device: the higher terminal acts as source
      std::swap(vs, vd);
      std::swap(s, d);
    }
    const double vsg = vs - vg;
    const double vsd = vs - vd;
    const Mosfet::Operating op = mirror_.evaluate(vsg, vsd);
    // Current i_sd flows from s to d: i = Ieq + gm (vs - vg) + gds (vs - vd).
    const double ieq = op.ids - op.gm * vsg - op.gds * vsd;
    mna.conductance(s, d, op.gds);
    mna.vccs(s, d, s, g_, op.gm);
    mna.current_into(s, -ieq);
    mna.current_into(d, ieq);
  }
  [[nodiscard]] bool is_nonlinear() const override { return true; }

 private:
  NodeId d_, g_, s_;
  Mosfet mirror_;
};

TEST(Pmos, SourceFollowsNmosMirror) {
  // A PMOS with its source at VDD and gate well below conducts; gate at
  // VDD cuts it off.
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  const NodeId gate = c.node("gate");
  c.add<VoltageSource>("Vdd", vdd, Circuit::ground(), dc(1.2));
  c.add<VoltageSource>("Vg", gate, Circuit::ground(), dc(0.0));  // on
  Pmos::Params p;
  p.beta = 2e-3;
  p.vth = 0.45;
  p.lambda = 0.0;
  c.add<Pmos>("MP", out, gate, vdd, p);
  c.add<Resistor>("RL", out, Circuit::ground(), 500.0);
  const Solution s = solve_dc(c);
  // Strongly on: the output rises well above ground.
  EXPECT_GT(s.voltage(out), 0.15);
}

TEST(Pmos, CutoffWhenGateHigh) {
  Circuit c;
  const NodeId vdd = c.node("vdd");
  const NodeId out = c.node("out");
  c.add<VoltageSource>("Vdd", vdd, Circuit::ground(), dc(1.2));
  Pmos::Params p;
  c.add<Pmos>("MP", out, vdd, vdd, p);  // vgs = 0: off
  c.add<Resistor>("RL", out, Circuit::ground(), 1000.0);
  const Solution s = solve_dc(c);
  EXPECT_NEAR(s.voltage(out), 0.0, 1e-3);
}

/// Builds a two-output NMOS current mirror: a reference current into a
/// diode-connected device, mirrored by two outputs whose beta ratio sets
/// I1 : I2.  Returns the two measured output currents.
std::pair<double, double> mirror_currents(double w_ratio_1,
                                          double w_ratio_2,
                                          double lambda = 0.0) {
  Circuit c;
  const NodeId gate = c.node("gate");
  const NodeId o1 = c.node("o1");
  const NodeId o2 = c.node("o2");
  const NodeId vdd = c.node("vdd");
  c.add<VoltageSource>("Vdd", vdd, Circuit::ground(), dc(1.2));
  // Reference branch: 100 uA into the diode-connected master.
  c.add<CurrentSource>("Iref", vdd, gate, dc(100e-6));
  Mosfet::Params master;
  master.beta = 2e-3;
  master.vth = 0.45;
  master.lambda = lambda;
  c.add<Mosfet>("M0", gate, gate, Circuit::ground(), master);
  // Output branches with ratioed widths, loads small enough to keep the
  // devices saturated.
  Mosfet::Params out1 = master;
  out1.beta = master.beta * w_ratio_1;
  Mosfet::Params out2 = master;
  out2.beta = master.beta * w_ratio_2;
  c.add<Mosfet>("M1", o1, gate, Circuit::ground(), out1);
  c.add<Mosfet>("M2", o2, gate, Circuit::ground(), out2);
  c.add<Resistor>("R1", vdd, o1, 1000.0);
  c.add<Resistor>("R2", vdd, o2, 1000.0);
  const Solution s = solve_dc(c);
  const double i1 = (1.2 - s.voltage(o1)) / 1000.0;
  const double i2 = (1.2 - s.voltage(o2)) / 1000.0;
  return {i1, i2};
}

TEST(ReadCurrentDriver, MirrorRatioSetsBeta) {
  // W-ratios 0.94 and 2.0 realize I1 ~= 94 uA and I2 ~= 200 uA: the
  // paper's beta = 2.13 from device sizing.
  const auto [i1, i2] = mirror_currents(0.94, 2.0);
  EXPECT_NEAR(i1, 94e-6, 2e-6);
  EXPECT_NEAR(i2, 200e-6, 4e-6);
  EXPECT_NEAR(i2 / i1, 2.0 / 0.94, 0.02);
}

TEST(ReadCurrentDriver, MismatchMapsToBetaDeviation) {
  // A 2 % width error on the I1 device shifts the realized beta by -2 %;
  // feed that into the margin math and confirm the shift matches the
  // SchemeMismatch model.
  const auto [i1_nom, i2_nom] = mirror_currents(0.94, 2.0);
  const auto [i1_off, i2_off] = mirror_currents(0.94 * 1.02, 2.0);
  const double beta_nom = i2_nom / i1_nom;
  const double beta_off = i2_off / i1_off;
  const double realized_dev = beta_off / beta_nom - 1.0;
  EXPECT_NEAR(realized_dev, -0.02, 0.002);

  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  SchemeMismatch mm;
  mm.beta_deviation = realized_dev;
  const SenseMargins shifted = scheme.margins(beta_nom, mm);
  const SenseMargins direct = scheme.margins(beta_off);
  EXPECT_NEAR(shifted.sm1.value(), direct.sm1.value(), 1e-9);
}

TEST(ReadCurrentDriver, ChannelLengthModulationDegradesAccuracy) {
  const auto [i1_ideal, i2_ideal] = mirror_currents(1.0, 1.0, 0.0);
  const auto [i1_real, i2_real] = mirror_currents(1.0, 1.0, 0.1);
  // With lambda the mirrored current exceeds the reference (output vds
  // differs from the diode vds) — the classic mirror error.
  EXPECT_NEAR(i1_ideal, 100e-6, 1e-6);
  EXPECT_GT(i1_real, i1_ideal);
  (void)i2_ideal;
  (void)i2_real;
}

TEST(WriteDriver, HBridgeDrivesBothPolarities) {
  // H-bridge around the cell: PMOS pull-ups to VDD on both terminals,
  // NMOS pull-downs to ground; closing (P_bl, N_sl) drives current one
  // way, (P_sl, N_bl) the other.  Check both directions exceed the
  // 500 uA critical current through the low-resistance state.
  for (const bool forward : {true, false}) {
    Circuit c;
    const NodeId vdd = c.node("vdd");
    const NodeId bl = c.node("bl");
    const NodeId sl = c.node("sl");
    c.add<VoltageSource>("Vdd", vdd, Circuit::ground(), dc(1.8));
    const LinearRiModel mtj(MtjParams::paper_calibrated());
    c.add<MtjElement>("J", bl, sl, mtj, MtjState::kParallel);
    // Big drivers (write path is sized for current, not density).
    Pmos::Params pp;
    pp.beta = 20e-3;
    pp.vth = 0.45;
    Mosfet::Params np;
    np.beta = 20e-3;
    np.vth = 0.45;
    const NodeId pg_bl = c.node("pg_bl");
    const NodeId pg_sl = c.node("pg_sl");
    const NodeId ng_bl = c.node("ng_bl");
    const NodeId ng_sl = c.node("ng_sl");
    // Gate drives select the direction.
    c.add<VoltageSource>("Vpgbl", pg_bl, Circuit::ground(),
                         dc(forward ? 0.0 : 1.8));
    c.add<VoltageSource>("Vpgsl", pg_sl, Circuit::ground(),
                         dc(forward ? 1.8 : 0.0));
    c.add<VoltageSource>("Vngbl", ng_bl, Circuit::ground(),
                         dc(forward ? 0.0 : 1.8));
    c.add<VoltageSource>("Vngsl", ng_sl, Circuit::ground(),
                         dc(forward ? 1.8 : 0.0));
    c.add<Pmos>("MPbl", bl, pg_bl, vdd, pp);
    c.add<Pmos>("MPsl", sl, pg_sl, vdd, pp);
    c.add<Mosfet>("MNbl", bl, ng_bl, Circuit::ground(), np);
    c.add<Mosfet>("MNsl", sl, ng_sl, Circuit::ground(), np);
    const Solution s = solve_dc(c);
    const double v_cell = s.voltage(bl) - s.voltage(sl);
    const double i_cell =
        std::fabs(v_cell) /
        mtj.resistance(MtjState::kParallel, Ampere(500e-6)).value();
    EXPECT_GT(i_cell, 500e-6) << (forward ? "forward" : "reverse");
    EXPECT_EQ(v_cell > 0.0, forward);
  }
}

}  // namespace
}  // namespace sttram
