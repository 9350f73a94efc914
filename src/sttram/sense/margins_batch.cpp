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
  k.v_ref_conv.resize(cols);
  k.r_ref_p2.resize(cols);
  k.r_ref_ap2.resize(cols);
  k.i1_d.resize(cols);
  k.frac1_d.resize(cols);
  k.i1_n.resize(cols);
  k.frac1_n.resize(cols);
  k.alpha_eff.resize(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    k.v_ref_conv[c] = in.shared_v_ref.value() + in.col_vref_err[c];
    const MtjParams& rp = in.col_ref_p[c];
    const MtjParams& rap = in.col_ref_ap[c];
    k.r_ref_p2[c] = rp.r_low0.value() - rp.droop_low.value() * k.frac2;
    k.r_ref_ap2[c] = rap.r_high0.value() - rap.droop_high.value() * k.frac2;
    const double beta_eff_d =
        in.beta_destructive * (1.0 + in.col_beta_dev[c]);
    k.i1_d[c] = k.i_max / beta_eff_d;
    k.frac1_d[c] = std::min(std::fabs(k.i1_d[c]) / in.i_droop_ref, 1.5);
    const double beta_eff_n =
        in.beta_nondestructive * (1.0 + in.col_beta_dev[c]);
    k.i1_n[c] = k.i_max / beta_eff_n;
    k.frac1_n[c] = std::min(std::fabs(k.i1_n[c]) / in.i_droop_ref, 1.5);
    k.alpha_eff[c] = in.selfref.alpha * (1.0 + in.col_alpha_dev[c]);
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
