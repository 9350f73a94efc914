#include "sttram/stats/importance.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram {

ImportanceEstimate importance_sample_blocked(
    std::uint64_t seed, std::size_t trials, const std::vector<double>& shift,
    const std::function<void(const GaussianBlock& block, std::size_t first,
                             std::uint8_t* fails)>& fails_block,
    ParallelExecutor* executor) {
  require(trials > 0, "importance_sample_blocked: trials must be > 0");
  require(!shift.empty(), "importance_sample_blocked: shift vector required");
  STTRAM_OBS_SCOPE("is.sample");
  const std::size_t dim = shift.size();
  double shift_sq = 0.0;
  for (const double s : shift) shift_sq += s * s;

  // Each chunk classifies its trials in blocks of kMcBlockSize that never
  // span a chunk boundary, writing only its own trials' slots; trial k
  // draws from master.fork(k) whichever block holds it, so the slots are
  // the same for any thread count.
  struct TrialOutcome {
    bool hit = false;
    double w = 0.0;
  };
  std::vector<TrialOutcome> outcomes(trials);
  const Xoshiro256 master(seed);
  SerialExecutor serial;
  ParallelExecutor& exec = executor != nullptr ? *executor : serial;
  STTRAM_OBS_SET_GAUGE("mc.batch_size", kMcBlockSize);
  exec.for_chunks(trials, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    GaussianBlock block;
    block.reset(dim, kMcBlockSize);
    std::array<std::uint8_t, kMcBlockSize> fail{};
    for (std::size_t first = begin; first < end; first += kMcBlockSize) {
      const std::size_t count = std::min(end - first, kMcBlockSize);
      TrialOutcome* out = outcomes.data() + first;
      fill_shifted_gaussian_block(master, shift, first, count, block);
      std::fill_n(fail.begin(), count, std::uint8_t{0});
      fails_block(block, first, fail.data());
      for (std::size_t lane = 0; lane < count; ++lane) {
        out[lane].hit = fail[lane] != 0;
        // Same weight expression (and libm call) as the per-trial
        // reference, evaluated only on failing lanes as it is there.
        out[lane].w = out[lane].hit
                          ? std::exp(-block.dot[lane] + 0.5 * shift_sq)
                          : 0.0;
      }
    }
  });

  // Serial reduction in trial order.
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::size_t hits = 0;
  for (const TrialOutcome& o : outcomes) {
    if (!o.hit) continue;
    ++hits;
    sum_w += o.w;
    sum_w2 += o.w * o.w;
  }
  STTRAM_OBS_ADD("mc.trials", trials);
  STTRAM_OBS_ADD("is.trials", trials);
  STTRAM_OBS_ADD("is.hits", hits);
  ImportanceEstimate e;
  e.trials = trials;
  e.hits = hits;
  const double n = static_cast<double>(trials);
  e.probability = sum_w / n;
  const double var = std::max(0.0, sum_w2 / n - e.probability * e.probability);
  e.std_error = std::sqrt(var / n);
  e.relative_error =
      e.probability > 0.0 ? e.std_error / e.probability : 0.0;
  return e;
}

std::vector<double> design_point_on_gradient(
    const std::function<double(const std::vector<double>&)>& g,
    std::size_t dim, double max_radius) {
  require(dim > 0, "design_point_on_gradient: dim must be > 0");
  std::vector<double> origin(dim, 0.0);
  const double g0 = g(origin);
  require(g0 > 0.0,
          "design_point_on_gradient: nominal point must pass (g(0) > 0)");

  // Steepest-descent direction from a central finite difference.
  std::vector<double> grad(dim, 0.0);
  const double h = 1e-4;
  double norm = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    std::vector<double> zp = origin, zm = origin;
    zp[i] = h;
    zm[i] = -h;
    grad[i] = (g(zp) - g(zm)) / (2.0 * h);
    norm += grad[i] * grad[i];
  }
  norm = std::sqrt(norm);
  if (norm == 0.0) return {};  // flat: no informative direction
  std::vector<double> dir(dim);
  for (std::size_t i = 0; i < dim; ++i) dir[i] = -grad[i] / norm;

  const auto g_at = [&](double t) {
    std::vector<double> z(dim);
    for (std::size_t i = 0; i < dim; ++i) z[i] = t * dir[i];
    return g(z);
  };
  // Bracket the first zero crossing along the ray.
  double lo = 0.0;
  double hi = 0.0;
  bool bracketed = false;
  for (double t = 0.5; t <= max_radius; t += 0.5) {
    if (g_at(t) < 0.0) {
      hi = t;
      bracketed = true;
      break;
    }
    lo = t;
  }
  if (!bracketed) return {};
  const double t_star = brent(g_at, lo, hi, 1e-10);
  std::vector<double> z(dim);
  for (std::size_t i = 0; i < dim; ++i) z[i] = t_star * dir[i];
  return z;
}

}  // namespace sttram
