#include "sttram/sense/margins_batch.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/sense/margins_batch_simd.hpp"

namespace sttram {
namespace {

const SenseSimdKernels& sense_kernels() {
  static const SenseSimdKernels kW1{&simd_detail::yield_solve_simd<1>,
                                    &simd_detail::tail_margins_simd<1>};
  return pick_simd_table(active_simd_isa(), &kW1, sense_simd_kernels_w2(),
                         sense_simd_kernels_w4(), sense_simd_kernels_w8());
}

}  // namespace

// -------------------------------------------------------- YieldBatchKernel

YieldBatchKernel YieldBatchKernel::build(const YieldKernelInputs& in) {
  const std::size_t cols = in.col_vref_err.size();
  require(cols > 0 && in.col_beta_dev.size() == cols &&
              in.col_alpha_dev.size() == cols && in.col_ref_p.size() == cols &&
              in.col_ref_ap.size() == cols,
          "YieldBatchKernel: per-column tables must be non-empty and equal");
  require(in.i_droop_ref > 0.0 && in.beta_destructive > 0.0 &&
              in.beta_nondestructive > 0.0,
          "YieldBatchKernel: operating points must be resolved (> 0)");
  YieldBatchKernel kernel;
  YieldKernelTables& k = kernel.tables_;
  k.i_max = in.selfref.i_max.value();
  k.frac2 = std::min(std::fabs(k.i_max) / in.i_droop_ref, 1.5);
  k.cols = cols;
  for (auto& column : k.columns) column.resize(cols);
  auto& col = k.columns;
  using T = YieldKernelTables;
  for (std::size_t c = 0; c < cols; ++c) {
    col[T::kVRefConv][c] = in.shared_v_ref.value() + in.col_vref_err[c];
    const MtjParams& rp = in.col_ref_p[c];
    const MtjParams& rap = in.col_ref_ap[c];
    col[T::kRRefP2][c] = rp.r_low0.value() - rp.droop_low.value() * k.frac2;
    col[T::kRRefAp2][c] =
        rap.r_high0.value() - rap.droop_high.value() * k.frac2;
    const double beta_eff_d =
        in.beta_destructive * (1.0 + in.col_beta_dev[c]);
    col[T::kI1D][c] = k.i_max / beta_eff_d;
    col[T::kFrac1D][c] =
        std::min(std::fabs(col[T::kI1D][c]) / in.i_droop_ref, 1.5);
    const double beta_eff_n =
        in.beta_nondestructive * (1.0 + in.col_beta_dev[c]);
    col[T::kI1N][c] = k.i_max / beta_eff_n;
    col[T::kFrac1N][c] =
        std::min(std::fabs(col[T::kI1N][c]) / in.i_droop_ref, 1.5);
    col[T::kAlphaEff][c] = in.selfref.alpha * (1.0 + in.col_alpha_dev[c]);
  }
  kernel.fn_ = sense_kernels().yield_solve;
  return kernel;
}

// --------------------------------------------------------- TailBatchKernel

TailBatchKernel TailBatchKernel::build(const TailKernelConfig& config) {
  require(config.beta > 0.0,
          "TailBatchKernel: beta must be resolved before building");
  require(config.nominal.i_droop_ref.value() > 0.0,
          "TailBatchKernel: i_droop_ref must be > 0");
  TailBatchKernel kernel;
  TailKernelTables& k = kernel.tables_;
  k.sigma_common = config.sigma_common;
  k.sigma_tmr = config.sigma_tmr;
  k.sigma_access = config.sigma_access;
  k.sigma_beta = config.sigma_beta;
  k.sigma_alpha = config.sigma_alpha;
  k.alpha = config.selfref.alpha;
  k.beta = config.beta;
  k.r_low0 = config.nominal.r_low0.value();
  k.droop_low = config.nominal.droop_low.value();
  k.idr = config.nominal.i_droop_ref.value();
  k.i_max = config.selfref.i_max.value();
  k.frac2 = std::min(std::fabs(k.i_max) / k.idr, 1.5);
  k.excess0_base = (config.nominal.r_high0 - config.nominal.r_low0).value();
  k.excess_droop_base =
      (config.nominal.droop_high - config.nominal.droop_low).value();
  kernel.fn_ = sense_kernels().tail_margins;
  return kernel;
}

}  // namespace sttram
