// The batch-kernel inputs of a Fig. 11 yield population, staged as
// run_yield_experiment stages them: the nominal device's designed betas
// and shared V_REF, then one stream per column, forked from
// seed ^ 0x5741524d5454536b, drawing the beta, alpha and V_REF residuals
// and the P and AP reference cells.  The `mc` section's yield row gates
// this copy against the per-cell oracle.
#pragma once

#include "sttram/sense/margins_batch.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/distributions.hpp"

namespace sttram::bench {

inline YieldKernelInputs yield_kernel_inputs(const YieldConfig& cfg) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  const MtjVariationModel variation(nominal, cfg.variation);
  YieldKernelInputs in;
  in.selfref = cfg.selfref;
  in.i_droop_ref = nominal.i_droop_ref.value();
  in.beta_destructive =
      cached_destructive_beta(nominal, Ohm(917.0), cfg.selfref);
  in.beta_nondestructive =
      cached_nondestructive_beta(nominal, Ohm(917.0), cfg.selfref);
  in.shared_v_ref =
      cached_shared_v_ref(nominal, Ohm(917.0), cfg.selfref.i_max);
  const Xoshiro256 column_master(cfg.seed ^ 0x5741524d5454536bULL);
  const std::size_t cols = cfg.geometry.cols;
  in.col_vref_err.resize(cols);
  in.col_beta_dev.resize(cols);
  in.col_alpha_dev.resize(cols);
  in.col_ref_p.resize(cols);
  in.col_ref_ap.resize(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    in.col_beta_dev[c] = sample_normal(stream, 0.0, cfg.sigma_beta);
    in.col_alpha_dev[c] = sample_normal(stream, 0.0, cfg.sigma_alpha);
    in.col_vref_err[c] = sample_normal(stream, 0.0, cfg.sigma_vref.value());
    in.col_ref_p[c] = variation.sample(stream);
    in.col_ref_ap[c] = variation.sample(stream);
  }
  return in;
}

}  // namespace sttram::bench
