// Batched (SoA) evaluators of the sense-margin closed forms.
//
// The scalar classes in margins.hpp build heap-allocated model objects
// per evaluation; these kernels precompute everything that is constant
// per experiment (or per column) once and then run straight-line
// arithmetic over a VariationBlock — contiguous doubles a SIMD kernel
// can sweep lane-parallel.
//
// Bit-identity: the kernels compute each read's bit-line voltages with
// the scalar classes' expressions, per-experiment subterms folded into
// precomputed constants, and hand them to the same margin bodies
// (scheme.hpp) the classes run.  No algebraic rewrites are applied:
// additions keep their association, libm calls hit the same functions on
// the same inputs, and `x + Ohm(0.0)` no-ops (the scalar path's unused
// delta_r_t / extra_r hooks) are dropped, which is exact in IEEE-754 for
// every x except -0.0 (whose value is unchanged).  The solve itself
// dispatches on active_simd_isa() to a per-width instantiation of one
// template (margins_batch_simd.hpp; W = 1 is the `scalar` target); every
// vector op is correctly rounded and lane-parallel, so each ISA
// reproduces the scalar classes bitwise.  tests/test_mc_batch.cpp holds the
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
#include "sttram/sense/scheme.hpp"
#include "sttram/stats/batch.hpp"

namespace sttram {

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
/// one vector load).
struct YieldKernelTables {
  /// The per-column tables, one row each.
  enum Column : std::size_t {
    kVRefConv,  ///< shared V_REF + column error
    kRRefP2,    ///< reference-pair R at I2
    kRRefAp2,
    kI1D,       ///< destructive I1 = I2 / beta_eff
    kFrac1D,
    kI1N,       ///< nondestructive I1
    kFrac1N,
    kAlphaEff,  ///< alpha * (1 + alpha_deviation)
    kColumnCount,
  };

  double i_max = 0.0;
  double frac2 = 0.0;  ///< min(I2 / I_ref, 1.5), global constant
  std::size_t cols = 0;
  std::array<aligned_vector<double>, kColumnCount> columns;
};

/// What a yield kernel reads: the tables' constants and their column
/// rows as plain pointers, so the per-ISA instantiations call no
/// std::vector member (DESIGN.md §15.3).
struct YieldKernelView {
  double i_max = 0.0;
  double frac2 = 0.0;
  std::size_t cols = 0;
  const double* column[YieldKernelTables::kColumnCount] = {};
};

/// SoA margin storage for the yield sweep: row r holds output r (scheme
/// s, bit b at r = 2*s + b, s in SchemeId order) contiguous across
/// cells, so a W-lane kernel retires each output with one contiguous
/// vector store instead of an 8x8 in-register transpose.  Slot i holds
/// the cell at row-major index `origin + i`: a whole array (origin 0) or
/// one window of it.
struct YieldMarginsSoA {
  std::size_t cells = 0;
  std::size_t origin = 0;  ///< row-major index of the cell in slot 0
  std::array<aligned_vector<double>, 2 * kSchemeCount> rows;

  void resize(std::size_t n) {
    cells = n;
    for (auto& r : rows) r.resize(n);
  }
  [[nodiscard]] double* row(std::size_t r) { return rows[r].data(); }
  [[nodiscard]] const double* row(std::size_t r) const {
    return rows[r].data();
  }
  /// The schemes' margins of the cell in slot i, indexed by SchemeId.
  [[nodiscard]] std::array<SenseMargins, kSchemeCount> cell(
      std::size_t i) const {
    std::array<SenseMargins, kSchemeCount> m;
    for (std::size_t s = 0; s < kSchemeCount; ++s) {
      m[s].sm0 = Volt(rows[2 * s][i]);
      m[s].sm1 = Volt(rows[2 * s + 1][i]);
    }
    return m;
  }
};

/// Signature of a yield-solve kernel instantiation.  `out_rows` holds
/// the 2 * kSchemeCount output-row pointers, offset to the block's lane 0.
using YieldSolveFn = void (*)(const YieldKernelView&, const VariationBlock&,
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
    double* out_rows[2 * kSchemeCount];
    for (std::size_t r = 0; r < 2 * kSchemeCount; ++r) {
      out_rows[r] = out->row(r) + slot;
    }
    YieldKernelView view{tables_.i_max, tables_.frac2, tables_.cols};
    for (std::size_t c = 0; c < YieldKernelTables::kColumnCount; ++c) {
      view.column[c] = tables_.columns[c].data();
    }
    fn_(view, block, first_cell, out_rows, max_low, min_high);
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

/// Flattened constants the tail kernel reads per lane.
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

/// Signature of a tail margins-min kernel instantiation: coordinate d of
/// lane i is z[d * stride + i] (a GaussianBlock's axes, passed as plain
/// pointers like YieldKernelView), for lanes [0, n).
using TailMarginsFn = void (*)(const TailKernelTables&, const double* z,
                               std::size_t stride, std::size_t n,
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
    fn_(tables_, block.axis(0), block.capacity, block.size, out);
  }

 private:
  TailKernelTables tables_;
  TailMarginsFn fn_ = nullptr;  ///< resolved from active_simd_isa()
};

}  // namespace sttram
