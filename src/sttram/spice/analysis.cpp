#include "sttram/spice/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sttram/common/error.hpp"
#include "sttram/common/format.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/spice/elements.hpp"
#include "sttram/spice/matrix.hpp"

namespace sttram::spice {
namespace {

bool any_nonlinear(const Circuit& circuit) {
  for (const auto& e : circuit.elements()) {
    if (e->is_nonlinear()) return true;
  }
  return false;
}

/// Storage one analysis call reuses for every Newton iteration and time
/// step: the MNA matrix (factorized in place), its right-hand side, the
/// linearized system's solution and the LU row permutation.  It lives on
/// the caller's stack, never in the Circuit, so analyses of different
/// circuits on different threads share nothing.
struct Workspace {
  explicit Workspace(const Circuit& circuit)
      : nonlinear(any_nonlinear(circuit)),
        a(circuit.unknown_count(), circuit.unknown_count()),
        b(circuit.unknown_count()),
        x_new(circuit.unknown_count()),
        perm(circuit.unknown_count()) {}

  bool nonlinear;  ///< any element's stamp depends on the iterate
  Matrix a;
  std::vector<double> b;
  std::vector<double> x_new;
  std::vector<std::size_t> perm;
};

/// Assembles the MNA system at the given context and solves it into
/// ws.x_new (the Newton update target).
void assemble_and_solve(Circuit& circuit, const StampContext& ctx,
                        double gmin, Workspace& ws) {
  const std::size_t nodes = circuit.node_count();
  ws.a.clear();
  std::fill(ws.b.begin(), ws.b.end(), 0.0);
  MnaStamper stamper(ws.a, ws.b, nodes);
  for (std::size_t k = 0; k < nodes; ++k) {
    ws.a(k, k) += gmin;  // keep every node weakly grounded
  }
  for (const auto& e : circuit.elements()) {
    e->stamp(stamper, ctx);
  }
  STTRAM_OBS_COUNT("spice.newton.factorizations");
  lu_factor_in_place(ws.a, ws.perm);
  lu_solve_in_place(ws.a, ws.perm, ws.b, ws.x_new);
}

/// Outcome of one Newton solve, kept for solver telemetry and for
/// attaching convergence context to CircuitError messages.
struct NewtonReport {
  bool converged = false;
  int iterations = 0;      ///< Newton iterations executed
  double max_delta = 0.0;  ///< last iteration's largest voltage update [V]
  NodeId worst_node = kGround;  ///< node carrying that largest update
};

/// One Newton solve at fixed (time, dt, gmin).  x holds the final
/// iterate whether or not the solve converged.
NewtonReport newton_solve(Circuit& circuit, StampContext ctx,
                          const NewtonOptions& opt, double gmin,
                          std::vector<double>& x, Workspace& ws) {
  NewtonReport report;
  const bool nonlinear = ws.nonlinear;
  ctx.x = &x;
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    ++report.iterations;
    assemble_and_solve(circuit, ctx, gmin, ws);
    std::vector<double>& x_new = ws.x_new;
    double max_delta = 0.0;
    NodeId worst = kGround;
    const std::size_t nodes = circuit.node_count();
    for (std::size_t k = 0; k < x.size(); ++k) {
      double delta = x_new[k] - x[k];
      // Damp only voltage unknowns of nonlinear systems; a linear solve
      // is exact and must not be clipped.
      if (nonlinear && k < nodes && std::fabs(delta) > opt.max_step) {
        delta = std::copysign(opt.max_step, delta);
        x_new[k] = x[k] + delta;
      }
      if (k < nodes && std::fabs(delta) > max_delta) {
        max_delta = std::fabs(delta);
        worst = static_cast<NodeId>(k);
      }
    }
    report.max_delta = max_delta;
    report.worst_node = worst;
    const bool converged =
        max_delta <= opt.v_abstol ||
        max_delta <= opt.reltol * std::max(1.0, std::fabs(x_new[0]));
    x.swap(x_new);
    if (!nonlinear) {  // linear circuits converge in one solve
      report.converged = true;
      break;
    }
    if (converged && iter > 0) {
      report.converged = true;
      break;
    }
  }
  STTRAM_OBS_COUNT("spice.newton.solves");
  STTRAM_OBS_ADD("spice.newton.iterations", report.iterations);
  if (!report.converged) STTRAM_OBS_COUNT("spice.newton.nonconverged");
  return report;
}

/// Human-readable convergence context for error messages.
std::string newton_context(const Circuit& circuit,
                           const NewtonReport& report) {
  const std::string node =
      report.worst_node == kGround
          ? std::string("n/a")
          : circuit.node_name(report.worst_node);
  return "after " + std::to_string(report.iterations) +
         " iterations, worst node '" + node +
         "' (|dV| = " + format_double(report.max_delta, 3) + " V)";
}

/// solve_dc on a finalized circuit, in the caller's workspace.
Solution solve_dc_in(Circuit& circuit, const NewtonOptions& options,
                     double time, Workspace& ws) {
  STTRAM_OBS_COUNT("spice.dc.solves");
  StampContext ctx;
  ctx.time = time;
  ctx.transient = false;
  ctx.dt = 0.0;
  std::vector<double> x(circuit.unknown_count(), 0.0);
  ctx.x_prev = nullptr;
  const NewtonReport direct =
      newton_solve(circuit, ctx, options, options.gmin, x, ws);
  if (direct.converged) {
    return Solution{std::move(x)};
  }
  // gmin ramp: converge an easier (heavily grounded) system first, then
  // walk gmin back down reusing each converged iterate as the start.
  STTRAM_OBS_COUNT("spice.dc.gmin_ramps");
  double gmin = 1e-3;
  std::fill(x.begin(), x.end(), 0.0);
  NewtonReport last = direct;
  for (int decade = 0; decade <= options.gmin_ramp_decades; ++decade) {
    last = newton_solve(circuit, ctx, options, gmin, x, ws);
    STTRAM_OBS_COUNT("spice.dc.gmin_decades");
    if (!last.converged) {
      throw CircuitError(
          "solve_dc: Newton failed during gmin ramp (gmin = " +
          format_double(gmin, 3) + " S, decade " + std::to_string(decade) +
          " of " + std::to_string(options.gmin_ramp_decades) + ", " +
          newton_context(circuit, last) + ")");
    }
    if (gmin <= options.gmin) {
      return Solution{std::move(x)};
    }
    gmin = std::max(gmin * 0.1, options.gmin);
  }
  throw CircuitError(
      "solve_dc: gmin ramp exhausted without convergence (" +
      std::to_string(options.gmin_ramp_decades + 1) +
      " decades walked, final gmin = " + format_double(gmin, 3) + " S, " +
      newton_context(circuit, last) + ")");
}

}  // namespace

Solution solve_dc(Circuit& circuit, const NewtonOptions& options,
                  double time) {
  if (!circuit.finalized()) circuit.finalize();
  Workspace ws(circuit);
  return solve_dc_in(circuit, options, time, ws);
}

std::vector<Solution> dc_sweep(Circuit& circuit,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const NewtonOptions& options) {
  Element* elem = circuit.find(source_name);
  if (elem == nullptr) {
    throw CircuitError("dc_sweep: no element named '" + source_name + "'");
  }
  auto* vsrc = dynamic_cast<VoltageSource*>(elem);
  auto* isrc = dynamic_cast<CurrentSource*>(elem);
  if (vsrc == nullptr && isrc == nullptr) {
    throw CircuitError("dc_sweep: '" + source_name +
                       "' is not a voltage or current source");
  }
  if (!circuit.finalized()) circuit.finalize();
  Workspace ws(circuit);
  std::vector<Solution> out;
  out.reserve(values.size());
  for (const double v : values) {
    if (vsrc != nullptr) {
      vsrc->set_waveform(std::make_unique<DcWaveform>(v));
    } else {
      isrc->set_waveform(std::make_unique<DcWaveform>(v));
    }
    out.push_back(solve_dc_in(circuit, options, 0.0, ws));
  }
  return out;
}

TransientResult::TransientResult(std::vector<std::string> node_names,
                                 std::size_t node_count)
    : node_names_(std::move(node_names)), node_count_(node_count) {}

void TransientResult::append(double time, std::span<const double> x) {
  require(times_.empty() || time > times_.back(),
          "TransientResult: samples must be appended in time order");
  if (times_.empty()) width_ = x.size();
  require(x.size() == width_, "TransientResult: sample width mismatch");
  times_.push_back(time);
  samples_.insert(samples_.end(), x.begin(), x.end());
}

std::span<const double> TransientResult::sample(std::size_t k) const {
  require(k < times_.size(), "TransientResult: sample index out of range");
  return {samples_.data() + k * width_, width_};
}

double TransientResult::voltage(NodeId n, std::size_t k) const {
  require(k < times_.size(), "TransientResult: sample index out of range");
  if (n == kGround) return 0.0;
  require(n >= 0 && static_cast<std::size_t>(n) < node_count_,
          "TransientResult: node id out of range");
  return samples_[k * width_ + static_cast<std::size_t>(n)];
}

double TransientResult::voltage_at(NodeId n, double t) const {
  require(!times_.empty(), "TransientResult: empty result");
  if (t <= times_.front()) return voltage(n, 0);
  if (t >= times_.back()) return voltage(n, times_.size() - 1);
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t i = static_cast<std::size_t>(it - times_.begin());
  const double w = (t - times_[i - 1]) / (times_[i] - times_[i - 1]);
  return voltage(n, i - 1) * (1.0 - w) + voltage(n, i) * w;
}

double TransientResult::final_voltage(NodeId n) const {
  require(!times_.empty(), "TransientResult: empty result");
  return voltage(n, times_.size() - 1);
}

double TransientResult::crossing_time(NodeId n, double level,
                                      int direction) const {
  require(direction == 1 || direction == -1,
          "crossing_time: direction must be +1 or -1");
  for (std::size_t k = 1; k < times_.size(); ++k) {
    const double v0 = voltage(n, k - 1);
    const double v1 = voltage(n, k);
    const bool crossed = direction == 1 ? (v0 < level && v1 >= level)
                                        : (v0 > level && v1 <= level);
    if (crossed) {
      const double w = (level - v0) / (v1 - v0);
      return times_[k - 1] + w * (times_[k] - times_[k - 1]);
    }
  }
  return -1.0;
}

namespace {

/// Sorted, deduplicated element breakpoints inside (t_start, t_stop].
std::vector<double> collect_breakpoints(const Circuit& circuit,
                                        double t_start, double t_stop) {
  std::vector<double> bps;
  for (const auto& e : circuit.elements()) {
    for (const double t : e->breakpoints()) {
      if (t > t_start && t <= t_stop) bps.push_back(t);
    }
  }
  std::sort(bps.begin(), bps.end());
  bps.erase(std::unique(bps.begin(), bps.end(),
                        [](double a, double b) {
                          return std::fabs(a - b) < 1e-18;
                        }),
            bps.end());
  return bps;
}

/// Next breakpoint strictly after `t` (or +inf).
double next_breakpoint(const std::vector<double>& bps, double t) {
  const auto it = std::upper_bound(bps.begin(), bps.end(), t + 1e-18);
  return it == bps.end() ? std::numeric_limits<double>::infinity() : *it;
}

}  // namespace

TransientResult run_transient(Circuit& circuit,
                              const TransientOptions& options,
                              const Solution* initial) {
  require(options.dt > 0.0, "run_transient: dt must be > 0");
  require(options.t_stop > options.t_start,
          "run_transient: t_stop must exceed t_start");
  if (!circuit.finalized()) circuit.finalize();
  STTRAM_OBS_COUNT("spice.transient.runs");
  STTRAM_OBS_SCOPE("spice.transient");

  std::vector<std::string> names;
  names.reserve(circuit.node_count());
  for (std::size_t k = 0; k < circuit.node_count(); ++k) {
    names.push_back(circuit.node_name(static_cast<NodeId>(k)));
  }
  TransientResult result(std::move(names), circuit.node_count());

  Workspace ws(circuit);
  std::vector<double> x_prev;
  if (initial != nullptr) {
    require(initial->x.size() == circuit.unknown_count(),
            "run_transient: initial solution size mismatch");
    x_prev = initial->x;
  } else {
    x_prev = solve_dc_in(circuit, options.newton, options.t_start, ws).x;
  }
  result.append(options.t_start, x_prev);

  const std::vector<double> bps =
      collect_breakpoints(circuit, options.t_start, options.t_stop);
  const double dt_min =
      options.dt_min > 0.0 ? options.dt_min : options.dt / 1024.0;
  const double dt_max =
      options.dt_max > 0.0 ? options.dt_max : 8.0 * options.dt;

  const std::size_t nodes = circuit.node_count();
  std::vector<double> x = x_prev;
  std::vector<double> x_prev2;  // solution two accepted steps back
  double t = options.t_start;
  double t_prev_accepted = options.t_start;
  double dt = options.dt;
  bool have_two_points = false;

  const std::size_t step_limit = static_cast<std::size_t>(
      64.0 * (options.t_stop - options.t_start) / dt_min + 1024.0);
  for (std::size_t guard = 0; t < options.t_stop; ++guard) {
    if (guard > step_limit) {
      throw CircuitError("run_transient: step limit exceeded (dt_min too "
                         "small or LTE tolerance unreachable)");
    }
    // Clamp the step to the stop time and the next breakpoint.  Land one
    // sample a hair *before* each breakpoint (pre-event state) and the
    // next exactly on it (post-event state), so discontinuities stay
    // sharp in the stored waveform.
    constexpr double kEventResolution = 1e-13;
    double h = std::min(dt, options.t_stop - t);
    const double bp = next_breakpoint(bps, t);
    if (std::isfinite(bp)) {
      if (t < bp - kEventResolution) {
        h = std::min(h, (bp - kEventResolution) - t);
      } else {
        h = std::min(h, bp - t);  // tiny hop onto the event itself
      }
    }
    if (h < 1e-18) h = 1e-18;
    const double t_new = t + h;

    StampContext ctx;
    ctx.time = t_new;
    ctx.dt = h;
    ctx.transient = true;
    ctx.integrator = options.integrator;
    ctx.x_prev = &x_prev;
    x = x_prev;  // warm start
    const NewtonReport rep = newton_solve(circuit, ctx, options.newton,
                                          options.newton.gmin, x, ws);
    if (!rep.converged) {
      throw CircuitError("run_transient: Newton failed at t=" +
                         std::to_string(t_new) +
                         " (dt = " + format_double(h, 3) + " s, " +
                         newton_context(circuit, rep) + ")");
    }

    if (options.adaptive && have_two_points) {
      // LTE estimate: distance between the computed point and the linear
      // predictor through the two previous accepted points.
      const double h_prev = t - t_prev_accepted;
      double err = 0.0;
      if (h_prev > 0.0) {
        for (std::size_t k = 0; k < nodes; ++k) {
          const double slope = (x_prev[k] - x_prev2[k]) / h_prev;
          const double predicted = x_prev[k] + slope * h;
          err = std::max(err, std::fabs(x[k] - predicted));
        }
      }
      if (err > options.lte_tol && h > dt_min * (1.0 + 1e-9) &&
          t_new < bp - 1e-18) {
        dt = std::max(dt_min, 0.5 * h);
        STTRAM_OBS_COUNT("spice.transient.steps_rejected");
        continue;  // reject; retry with the smaller step
      }
      if (err < 0.2 * options.lte_tol) {
        dt = std::min(dt_max, 1.4 * dt);
      }
    }

    // Accept: let dynamic elements update their histories.
    STTRAM_OBS_COUNT("spice.transient.steps_accepted");
    ctx.x = &x;
    for (const auto& e : circuit.elements()) {
      e->commit_step(ctx);
    }
    result.append(t_new, x);
    x_prev2.swap(x_prev);
    x_prev = x;
    t_prev_accepted = t;
    t = t_new;
    have_two_points = true;
  }
  return result;
}

}  // namespace sttram::spice
