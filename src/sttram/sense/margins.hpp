// Analytic sense-margin math of the four sensing schemes.
//
// All expressions evaluate against abstract RiModel / AccessDeviceModel
// instances, so the same code runs on the calibrated linear law, the
// Simmons law, table models, or process-varied device instances.  The
// classes compute the bit-line voltages; each scheme's SM0/SM1 closed
// form over them is the one body in scheme.hpp the batch kernels run.
#pragma once

#include <memory>

#include "sttram/cell/access_transistor.hpp"
#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"

namespace sttram {

/// Sense margins for the two stored values.  A margin is the voltage by
/// which the comparator input pair is separated in the correct direction;
/// a negative margin means the bit reads back wrong.
struct SenseMargins {
  Volt sm0{0.0};  ///< margin when the stored bit is 0 (parallel / low R)
  Volt sm1{0.0};  ///< margin when the stored bit is 1 (anti-parallel)

  [[nodiscard]] Volt min() const { return sttram::min(sm0, sm1); }
  [[nodiscard]] Volt max() const { return sttram::max(sm0, sm1); }
  [[nodiscard]] bool positive() const {
    return sm0.value() > 0.0 && sm1.value() > 0.0;
  }
};

/// Deviations analyzed by the paper's robustness section (Sec. IV).
struct SchemeMismatch {
  /// NMOS resistance shift between the two reads: R_T2 = R_T(I2) +
  /// delta_r_t.  (Fig. 7 sweeps this.)
  Ohm delta_r_t{0.0};
  /// Relative deviation of the voltage-divider ratio: the effective
  /// ratio is alpha * (1 + alpha_deviation).  (Fig. 8; nondestructive
  /// scheme only.)
  double alpha_deviation = 0.0;
  /// Relative deviation of the realized read-current ratio: the second
  /// read runs at I2 but the first read current becomes
  /// I2 / (beta * (1 + beta_deviation)).
  double beta_deviation = 0.0;
};

/// Electrical configuration shared by the self-reference schemes.
struct SelfRefConfig {
  /// Second-read current I_R2 (the paper's I_max, 200 uA = 40 % of the
  /// switching current).
  Ampere i_max{200e-6};
  /// Divider ratio of the nondestructive scheme (designed 0.5 for a
  /// symmetric divider; ignored by the destructive scheme).
  double alpha = 0.5;
};

/// Validity window of one deviation parameter (e.g. the beta range with
/// positive margins).
struct Window {
  double lo = 0.0;
  double hi = 0.0;
  bool valid = false;
  [[nodiscard]] double width() const { return valid ? hi - lo : 0.0; }
  [[nodiscard]] bool contains(double x) const {
    return valid && x >= lo && x <= hi;
  }
};

/// Abstract self-reference scheme (two reads of the same bit at currents
/// I1 = I_max/beta and I2 = I_max, compared against each other).
class SelfReferenceScheme {
 public:
  SelfReferenceScheme(const RiModel& model, const AccessDeviceModel& access,
                      SelfRefConfig config);
  virtual ~SelfReferenceScheme() = default;

  SelfReferenceScheme(const SelfReferenceScheme&) = delete;
  SelfReferenceScheme& operator=(const SelfReferenceScheme&) = delete;

  [[nodiscard]] const SelfRefConfig& config() const { return config_; }
  [[nodiscard]] const RiModel& ri_model() const { return *model_; }
  [[nodiscard]] const AccessDeviceModel& access() const { return *access_; }

  /// First/second read currents for a ratio beta = I2/I1.
  [[nodiscard]] Ampere first_read_current(double beta) const;
  [[nodiscard]] Ampere second_read_current() const { return config_.i_max; }

  /// Bit-line voltage of the first read for a given stored state.
  [[nodiscard]] Volt first_read_voltage(MtjState s, double beta) const;

  /// Sense margins at ratio `beta` with the given deviations.
  [[nodiscard]] virtual SenseMargins margins(
      double beta, const SchemeMismatch& mm) const = 0;
  [[nodiscard]] SenseMargins margins(double beta) const {
    return margins(beta, SchemeMismatch{});
  }

  /// Equal-margin optimum: the beta where SM0(beta) == SM1(beta)
  /// (numeric root; throws NumericError when no crossing exists in
  /// [beta_lo, beta_hi]).
  [[nodiscard]] double optimal_beta(double beta_lo = 1.0 + 1e-6,
                                    double beta_hi = 16.0) const;

 protected:
  /// R_MTJ(s, i) + R_T(i), optionally with the second-read Delta-R added.
  [[nodiscard]] Ohm path_resistance(MtjState s, Ampere i,
                                    Ohm extra_r = Ohm(0.0)) const;

  SelfRefConfig config_;

 private:
  std::unique_ptr<RiModel> model_;
  std::unique_ptr<AccessDeviceModel> access_;
};

/// The conventional *destructive* self-reference scheme (Fig. 3, Jeong
/// JSSC'03): read, erase to 0, read the erased cell at I2, compare, write
/// back.  The comparison pair is (V_BL1, V_BL2).
class DestructiveSelfReference final : public SelfReferenceScheme {
 public:
  DestructiveSelfReference(const RiModel& model,
                           const AccessDeviceModel& access,
                           SelfRefConfig config);
  /// Convenience: calibrated linear MTJ law + fixed R_T.
  DestructiveSelfReference(const MtjParams& mtj, Ohm r_access,
                           SelfRefConfig config = {});

  using SelfReferenceScheme::margins;
  [[nodiscard]] SenseMargins margins(double beta,
                                     const SchemeMismatch& mm) const override;

  /// Second-read (erased-cell) voltage at I2 with mismatch applied.
  [[nodiscard]] Volt reference_voltage(const SchemeMismatch& mm) const;

  /// The paper's Eq. (5): linearized equal-margin ratio
  /// beta = 1 + 2(dR_Hmax + dR_Lmax)/(R_H0 + R_L0 + 2 R_T).
  /// Evaluates to 1.22 on the calibrated device (Table I).
  [[nodiscard]] double paper_beta() const;

  /// The paper's Eq. (18) closed-form Delta-R tolerance at ratio `beta`:
  /// +-(beta - 1)(R_L1 + R_T1).  Evaluates to +-468 Ohm at beta = 1.22.
  /// Note this is the paper's approximation; the exact margin-positivity
  /// window is asymmetric (see robustness.hpp).
  [[nodiscard]] Window paper_delta_r_window(double beta) const;
};

/// The paper's contribution: the *nondestructive* self-reference scheme
/// (Fig. 5).  Two reads of the undisturbed cell at I1 and I2; the second
/// bit-line voltage is scaled by the divider ratio alpha and compared to
/// the stored first-read voltage.
class NondestructiveSelfReference final : public SelfReferenceScheme {
 public:
  NondestructiveSelfReference(const RiModel& model,
                              const AccessDeviceModel& access,
                              SelfRefConfig config);
  NondestructiveSelfReference(const MtjParams& mtj, Ohm r_access,
                              SelfRefConfig config = {});

  using SelfReferenceScheme::margins;
  [[nodiscard]] SenseMargins margins(double beta,
                                     const SchemeMismatch& mm) const override;

  /// Divider output alpha * V_BL2 for a stored state, with mismatch.
  [[nodiscard]] Volt divider_voltage(MtjState s,
                                     const SchemeMismatch& mm) const;

  /// The paper's Eq. (10): exact equal-margin quadratic for the linear
  /// R-I law,
  ///   alpha (S - dH - dL) beta^2 - S beta + (dH + dL) = 0,
  /// with S = R_H0 + R_L0 + 2 R_T.  Evaluates to 2.13 on the calibrated
  /// device (Table I).
  [[nodiscard]] double paper_beta() const;

  /// The paper's Eq. (19) closed-form Delta-R tolerance at `beta`:
  /// +-(alpha*beta - 1)(R_L1 + R_T1)/(alpha*beta).  Evaluates to
  /// +-130 Ohm at beta = 2.13 (Table II).
  [[nodiscard]] Window paper_delta_r_window(double beta) const;

  /// The paper's Eq. (20) voltage-ratio tolerance at `beta`: the
  /// alpha-deviation range with positive margins, in relative units
  /// (evaluates to about -5.7 % .. +4.1 % at beta = 2.13).
  [[nodiscard]] Window alpha_deviation_window(double beta) const;

 private:
  /// Undivided second-read voltage V_BL2 at I2, with mismatch.
  [[nodiscard]] Volt second_read_voltage(MtjState s,
                                         const SchemeMismatch& mm) const;
  /// alpha * (1 + alpha_deviation).
  [[nodiscard]] double effective_alpha(const SchemeMismatch& mm) const;
};

/// Reference-cell sensing: the industry middle ground between a fixed
/// shared V_REF and full self-reference.  Each column carries one
/// parallel and one anti-parallel *reference cell*; V_REF is the
/// midpoint of their bit-line voltages.  Die-level common-mode
/// variation moves the reference together with the data cells and
/// cancels; *local* mismatch between the data cell and its reference
/// pair does not.  One read, no write — but extra area and residual
/// local-mismatch sensitivity.
class ReferenceCellSensing {
 public:
  /// `data` is the cell under test; `ref_p` / `ref_ap` are the column's
  /// reference devices (pass the same params for ideal tracking).
  ReferenceCellSensing(const RiModel& data, const AccessDeviceModel& access,
                       const RiModel& ref_p, const RiModel& ref_ap,
                       Ampere i_read);
  /// Ideal tracking: reference cells identical to the nominal device.
  ReferenceCellSensing(const MtjParams& data, const MtjParams& reference,
                       Ohm r_access, Ampere i_read);
  ~ReferenceCellSensing();

  ReferenceCellSensing(const ReferenceCellSensing&) = delete;
  ReferenceCellSensing& operator=(const ReferenceCellSensing&) = delete;

  /// Margins of the data cell against the generated reference.
  [[nodiscard]] SenseMargins margins() const;

 private:
  /// I_read (R(s, I_read) + R_T(I_read)) of a cell with law `model`.
  [[nodiscard]] Volt bitline_voltage(const RiModel& model, MtjState s) const;

  std::unique_ptr<RiModel> data_;
  std::unique_ptr<AccessDeviceModel> access_;
  std::unique_ptr<RiModel> ref_p_;
  std::unique_ptr<RiModel> ref_ap_;
  Ampere i_read_;
};

/// Conventional externally-referenced voltage sensing (Eq. (1)-(2)): one
/// read at `i_read`, compared against a shared V_REF.
class ConventionalSensing {
 public:
  ConventionalSensing(const RiModel& model, const AccessDeviceModel& access,
                      Ampere i_read);
  ConventionalSensing(const MtjParams& mtj, Ohm r_access, Ampere i_read);
  ~ConventionalSensing();

  ConventionalSensing(const ConventionalSensing&) = delete;
  ConventionalSensing& operator=(const ConventionalSensing&) = delete;

  [[nodiscard]] Ampere read_current() const { return i_read_; }

  /// Bit-line voltage for a stored state.
  [[nodiscard]] Volt bitline_voltage(MtjState s) const;

  /// Midpoint reference (V_BL,L + V_BL,H)/2 of *this* device — the
  /// shared V_REF is normally derived from the nominal device.
  [[nodiscard]] Volt midpoint_reference() const;

  /// Margins against an external reference:
  /// SM0 = V_REF - V_BL,L and SM1 = V_BL,H - V_REF.
  [[nodiscard]] SenseMargins margins(Volt v_ref) const;

 private:
  std::unique_ptr<RiModel> model_;
  std::unique_ptr<AccessDeviceModel> access_;
  Ampere i_read_;
};

}  // namespace sttram
