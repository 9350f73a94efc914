#include "sttram/sense/margins_batch.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/cell/access_transistor.hpp"
#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/sense/margins_batch_simd.hpp"

namespace sttram {
namespace {

/// Folds every double a linear-law operating-point solve consumes.
std::uint64_t scheme_key(OpKind kind, const MtjParams& nominal, Ohm r_access,
                         Ampere i_read, double alpha) {
  std::uint64_t key = op_key(kind);
  key = op_key_mix(key, nominal.r_low0.value());
  key = op_key_mix(key, nominal.r_high0.value());
  key = op_key_mix(key, nominal.droop_low.value());
  key = op_key_mix(key, nominal.droop_high.value());
  key = op_key_mix(key, nominal.i_droop_ref.value());
  key = op_key_mix(key, r_access.value());
  key = op_key_mix(key, i_read.value());
  key = op_key_mix(key, alpha);
  return key;
}

const SenseSimdKernels& sense_kernels() {
  static const SenseSimdKernels kW1{&simd_detail::yield_solve_simd<1>,
                                    &simd_detail::tail_margins_simd<1>};
  return pick_simd_table(active_simd_isa(), &kW1, sense_simd_kernels_w2(),
                         sense_simd_kernels_w4(), sense_simd_kernels_w8());
}

}  // namespace

double cached_destructive_beta(const MtjParams& nominal, Ohm r_access,
                               const SelfRefConfig& config) {
  const std::uint64_t key =
      scheme_key(OpKind::kDestructiveBeta, nominal, r_access, config.i_max,
                 config.alpha);
  return OpCache::local_shard()
      .get_or_compute(key,
                      [&] {
                        const DestructiveSelfReference scheme(
                            nominal, r_access, config);
                        OperatingPoint op;
                        op.beta = scheme.paper_beta();
                        op.i1 = config.i_max.value() / op.beta;
                        return op;
                      })
      .beta;
}

double cached_nondestructive_beta(const MtjParams& nominal, Ohm r_access,
                                  const SelfRefConfig& config) {
  const std::uint64_t key =
      scheme_key(OpKind::kNondestructiveBeta, nominal, r_access, config.i_max,
                 config.alpha);
  return OpCache::local_shard()
      .get_or_compute(key,
                      [&] {
                        const NondestructiveSelfReference scheme(
                            nominal, r_access, config);
                        OperatingPoint op;
                        op.beta = scheme.paper_beta();
                        op.i1 = config.i_max.value() / op.beta;
                        return op;
                      })
      .beta;
}

Volt cached_shared_v_ref(const MtjParams& nominal, Ohm r_access,
                         Ampere i_read) {
  const std::uint64_t key =
      scheme_key(OpKind::kSharedVRef, nominal, r_access, i_read, 0.0);
  return Volt(OpCache::local_shard()
                  .get_or_compute(key,
                                  [&] {
                                    const ConventionalSensing scheme(
                                        nominal, r_access, i_read);
                                    OperatingPoint op;
                                    op.v_ref =
                                        scheme.midpoint_reference().value();
                                    return op;
                                  })
                  .v_ref);
}

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
