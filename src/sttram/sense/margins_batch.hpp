// Batched (SoA) evaluators of the sense-margin closed forms, plus the
// memoized per-scheme operating points they start from.
//
// The scalar classes in margins.hpp build heap-allocated model objects
// per evaluation; these kernels precompute everything that is constant
// per experiment (or per column) once and then run straight-line
// arithmetic over a VariationBlock — contiguous doubles a SIMD kernel
// can sweep lane-parallel.
//
// Bit-identity: every per-lane expression below is the scalar class's
// expression with per-experiment subterms folded into precomputed
// constants.  No algebraic rewrites are applied: additions keep their
// association, libm calls hit the same functions on the same inputs, and
// `x + Ohm(0.0)` no-ops (the scalar path's unused delta_r_t / extra_r
// hooks) are dropped, which is exact in IEEE-754 for every x except
// -0.0 (whose value is unchanged).  The solve itself dispatches on
// active_simd_isa() to a per-width instantiation of one template
// (margins_batch_simd.hpp; W = 1 is the `scalar` target); every vector
// op is correctly rounded and lane-parallel, so each ISA reproduces the
// scalar classes bitwise.  tests/test_mc_batch.cpp holds the
// differential proof against the per-cell oracle (tests/mc_oracle.cpp)
// across schemes, corners, thread counts, and every host-supported ISA.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/stats/batch.hpp"

namespace sttram {

// Memoized operating points (device/op_cache.hpp, thread-shard-local).
// Each returns exactly the value the corresponding scalar construction
// computes — DestructiveSelfReference::paper_beta(),
// NondestructiveSelfReference::paper_beta(), and
// ConventionalSensing::midpoint_reference() on (nominal, r_access) — and
// memoizes it keyed on every double the solve consumes.

double cached_destructive_beta(const MtjParams& nominal, Ohm r_access,
                               const SelfRefConfig& config);
double cached_nondestructive_beta(const MtjParams& nominal, Ohm r_access,
                                  const SelfRefConfig& config);
Volt cached_shared_v_ref(const MtjParams& nominal, Ohm r_access,
                         Ampere i_read);

/// Everything the yield kernel needs: the experiment's operating points
/// plus the per-column mismatch samples (sim/yield draws these; the
/// kernel derives its per-column tables from them).
struct YieldKernelInputs {
  SelfRefConfig selfref;
  double i_droop_ref = 0.0;  ///< nominal I_ref (invariant under scaling)
  double beta_destructive = 0.0;
  double beta_nondestructive = 0.0;
  Volt shared_v_ref{0.0};
  std::vector<double> col_vref_err;   ///< shared-V_REF error per column [V]
  std::vector<double> col_beta_dev;   ///< current-ratio residual per column
  std::vector<double> col_alpha_dev;  ///< divider residual per column
  std::vector<MtjParams> col_ref_p;   ///< per-column reference-cell pair
  std::vector<MtjParams> col_ref_ap;
};

/// Precomputed constants the yield solve reads: globals plus per-column
/// tables (contiguous so a W-lane kernel loads W consecutive columns with
/// one vector load).  Public so the per-ISA kernel instantiations can
/// consume it directly.
struct YieldKernelTables {
  double i_max = 0.0;
  double frac2 = 0.0;  ///< min(I2 / I_ref, 1.5), global constant
  std::size_t cols = 0;
  aligned_vector<double> v_ref_conv;  ///< shared V_REF + column error
  aligned_vector<double> r_ref_p2;    ///< reference-pair R at I2
  aligned_vector<double> r_ref_ap2;
  aligned_vector<double> i1_d;        ///< destructive I1 = I2 / beta_eff
  aligned_vector<double> frac1_d;
  aligned_vector<double> i1_n;        ///< nondestructive I1
  aligned_vector<double> frac1_n;
  aligned_vector<double> alpha_eff;   ///< alpha * (1 + alpha_deviation)
};

/// SoA margin storage for the yield sweep: row r holds output r (scheme
/// s, bit b at r = 2*s + b; scheme order conventional, reference-cell,
/// destructive, nondestructive) contiguous across cells, so a W-lane
/// kernel retires each output with one contiguous vector store instead
/// of an 8x8 in-register transpose.  Slot i holds the cell at row-major
/// index `origin + i`: a whole array (origin 0) or one window of it.
struct YieldMarginsSoA {
  std::size_t cells = 0;
  std::size_t origin = 0;  ///< row-major index of the cell in slot 0
  std::array<aligned_vector<double>, 8> rows;

  void resize(std::size_t n) {
    cells = n;
    for (auto& r : rows) r.resize(n);
  }
  [[nodiscard]] double* row(std::size_t r) { return rows[r].data(); }
  [[nodiscard]] const double* row(std::size_t r) const {
    return rows[r].data();
  }
  /// The four schemes' margins of the cell in slot i, in record order.
  [[nodiscard]] std::array<SenseMargins, 4> cell(std::size_t i) const {
    std::array<SenseMargins, 4> m;
    for (std::size_t s = 0; s < 4; ++s) {
      m[s].sm0 = Volt(rows[2 * s][i]);
      m[s].sm1 = Volt(rows[2 * s + 1][i]);
    }
    return m;
  }
};

/// Signature of a yield-solve kernel instantiation.  `out_rows` holds the
/// 8 output-row pointers, already offset to lane 0 of this block.
using YieldSolveFn = void (*)(const YieldKernelTables&, const VariationBlock&,
                              std::size_t first_cell,
                              double* const* out_rows, double* max_low,
                              double* min_high);

/// Four-scheme margin solve over a block of sampled cells.  One lane =
/// one cell; the column index advances with the (row-major) cell index.
class YieldBatchKernel {
 public:
  static YieldBatchKernel build(const YieldKernelInputs& in);

  /// Solves lanes [0, block.size) for cells starting at row-major index
  /// `first_cell`.  Writes margins for the four schemes to
  /// `out->row(r)[first_cell - out->origin + lane]`, and folds each
  /// lane's second-read bit-line voltages into the running
  /// shared-reference window bounds `*max_low` / `*min_high`.
  void solve(const VariationBlock& block, std::size_t first_cell,
             YieldMarginsSoA* out, double* max_low, double* min_high) const {
    require(first_cell >= out->origin &&
                first_cell - out->origin + block.size <= out->cells,
            "YieldBatchKernel: block exceeds the margin frame");
    const std::size_t slot = first_cell - out->origin;
    double* out_rows[8];
    for (std::size_t r = 0; r < 8; ++r) {
      out_rows[r] = out->row(r) + slot;
    }
    fn_(tables_, block, first_cell, out_rows, max_low, min_high);
  }

  [[nodiscard]] std::size_t cols() const { return tables_.cols; }

 private:
  YieldKernelTables tables_;
  YieldSolveFn fn_ = nullptr;  ///< resolved from active_simd_isa()
};

/// Per-experiment constants of the tail kernel (sim/tail's variation
/// space; `beta` must already be resolved — the hoisted operating point).
struct TailKernelConfig {
  MtjParams nominal;
  double sigma_common = 0.0;
  double sigma_tmr = 0.0;
  double sigma_access = 0.0;
  double sigma_beta = 0.0;
  double sigma_alpha = 0.0;
  SelfRefConfig selfref;
  double beta = 0.0;  ///< resolved designed ratio (> 0)
};

/// Flattened constants the tail kernel reads per lane (public for the
/// per-ISA instantiations, like YieldKernelTables).
struct TailKernelTables {
  double sigma_common = 0.0;
  double sigma_tmr = 0.0;
  double sigma_access = 0.0;
  double sigma_beta = 0.0;
  double sigma_alpha = 0.0;
  double alpha = 0.0;
  double beta = 0.0;
  double r_low0 = 0.0;
  double droop_low = 0.0;
  double idr = 0.0;  ///< i_droop_ref
  double r_access_nominal = 917.0;
  double i_max = 0.0;
  double frac2 = 0.0;
  double excess0_base = 0.0;       ///< r_high0 - r_low0
  double excess_droop_base = 0.0;  ///< droop_high - droop_low
};

/// Signature of a tail margins-min kernel instantiation.
using TailMarginsFn = void (*)(const TailKernelTables&, const GaussianBlock&,
                               double* out);

/// Batched nondestructive_margin_at: min(SM0, SM1) of the nondestructive
/// scheme for every lane of a GaussianBlock of variation coordinates
/// z = (common, tmr, access, beta driver, divider alpha).
class TailBatchKernel {
 public:
  static TailBatchKernel build(const TailKernelConfig& config);

  /// Writes min-margin [V] per lane to `out[0..block.size)`.
  void margins_min(const GaussianBlock& block, double* out) const {
    require(block.dim == 5, "TailBatchKernel: expected 5 variation axes");
    fn_(tables_, block, out);
  }

 private:
  TailKernelTables tables_;
  TailMarginsFn fn_ = nullptr;  ///< resolved from active_simd_isa()
};

}  // namespace sttram
