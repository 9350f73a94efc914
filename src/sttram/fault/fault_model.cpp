#include "sttram/fault/fault_model.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::fault {

FaultConfig FaultConfig::with_total_density(double total) {
  require(total >= 0.0 && total <= 1.0,
          "FaultConfig: total density must be in [0, 1]");
  FaultConfig config;
  config.stuck_at_density = 0.30 * total;
  config.transition_density = 0.25 * total;
  config.retention_density = 0.20 * total;
  config.drift_density = 0.15 * total;
  config.weak_cell_fraction = 0.10;
  return config;
}

FaultMap::FaultMap(ArrayGeometry geometry)
    : geometry_(geometry),
      types_(geometry.cell_count(), FaultType::kNone),
      params_(geometry.cell_count(), 0.0) {}

std::size_t FaultMap::index(std::size_t row, std::size_t col) const {
  require(row < geometry_.rows && col < geometry_.cols,
          "FaultMap: cell coordinates out of range");
  return row * geometry_.cols + col;
}

FaultType FaultMap::type_at(std::size_t row, std::size_t col) const {
  return types_[index(row, col)];
}

double FaultMap::param_at(std::size_t row, std::size_t col) const {
  return params_[index(row, col)];
}

void FaultMap::set(std::size_t row, std::size_t col, FaultType type,
                   double param) {
  const std::size_t idx = index(row, col);
  types_[idx] = type;
  params_[idx] = param;
}

std::size_t FaultMap::count(FaultType type) const {
  std::size_t n = 0;
  for (const FaultType t : types_) {
    if (t == type) ++n;
  }
  return n;
}

std::size_t FaultMap::total() const {
  return types_.size() - count(FaultType::kNone);
}

void FaultMap::apply_to(TestableArray& array) const {
  require(array.geometry().rows == geometry_.rows &&
              array.geometry().cols == geometry_.cols,
          "FaultMap::apply_to: geometry mismatch");
  std::size_t applied = 0;
  for (std::size_t idx = 0; idx < types_.size(); ++idx) {
    if (types_[idx] == FaultType::kNone) continue;
    array.inject(idx / geometry_.cols, idx % geometry_.cols, types_[idx],
                 params_[idx]);
    ++applied;
  }
  STTRAM_OBS_ADD("fault.injected", applied);
}

double scheme_read_disturb_probability(SchemeId scheme,
                                       const MtjParams& params,
                                       const SelfRefConfig& selfref,
                                       const ReadTimingParams& timing) {
  // Each sensing phase holds its read current for precharge + sense.
  const Second duration = timing.t_precharge + timing.t_sense;
  const SwitchingModel switching(params);
  const std::vector<Ampere> currents =
      scheme_read_currents(scheme, params, Ohm(917.0), selfref);
  // P(some read flips the cell), reads independent.
  double p = switching.read_disturb_probability(currents[0], duration);
  for (std::size_t k = 1; k < currents.size(); ++k) {
    p = 1.0 - (1.0 - p) * (1.0 - switching.read_disturb_probability(
                                     currents[k], duration));
  }
  return p;
}

FaultMap generate_fault_map(ArrayGeometry geometry, const FaultConfig& config,
                            std::uint64_t seed, ParallelExecutor* executor) {
  for (const double d :
       {config.stuck_at_density, config.transition_density,
        config.retention_density, config.drift_density,
        config.weak_cell_fraction}) {
    require(d >= 0.0 && d <= 1.0,
            "generate_fault_map: densities must be in [0, 1]");
  }
  require(config.stuck_at_density + config.transition_density +
                  config.retention_density + config.drift_density <=
              1.0,
          "generate_fault_map: class densities must sum to <= 1");

  // Disturb probability of a weak cell over its read exposure, from the
  // thermal-activation model at the scheme's actual read currents.
  MtjParams weak = config.nominal;
  weak.i_critical = config.weak_icrit_factor * weak.i_critical;
  const double p_read = scheme_read_disturb_probability(
      config.scheme, weak, config.selfref, config.timing);
  const double p_weak =
      1.0 - std::pow(1.0 - p_read,
                     static_cast<double>(config.exposure_reads));

  // Cumulative first-match thresholds over one uniform draw.
  const double c_stuck = config.stuck_at_density;
  const double c_transition = c_stuck + config.transition_density;
  const double c_retention = c_transition + config.retention_density;
  const double c_drift = c_retention + config.drift_density;

  FaultMap map(geometry);
  const Xoshiro256 master(seed);
  const std::size_t cells = geometry.cell_count();

  // Each cell consumes only its own forked stream and writes only its
  // own slot, so the chunked parallel fill reproduces the serial one.
  const auto draw_cell = [&](std::size_t idx) {
    Xoshiro256 stream = master.fork(idx);
    const std::size_t row = idx / geometry.cols;
    const std::size_t col = idx % geometry.cols;
    const double u = stream.next_double();
    if (u < c_stuck) {
      map.set(row, col,
              (stream.next_u64() & 1u) != 0 ? FaultType::kStuckAtOne
                                            : FaultType::kStuckAtZero);
    } else if (u < c_transition) {
      map.set(row, col,
              (stream.next_u64() & 1u) != 0 ? FaultType::kTransitionUp
                                            : FaultType::kTransitionDown);
    } else if (u < c_retention) {
      map.set(row, col, FaultType::kRetention, config.retention_decay_ops);
    } else if (u < c_drift) {
      map.set(row, col, FaultType::kDriftOutlier, config.drift_factor);
    } else if (stream.next_double() < config.weak_cell_fraction &&
               stream.next_double() < p_weak) {
      map.set(row, col, FaultType::kReadDisturb, p_weak);
    }
  };

  if (executor != nullptr && executor->thread_count() > 1) {
    executor->for_chunks(
        cells, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) draw_cell(idx);
        });
  } else {
    for (std::size_t idx = 0; idx < cells; ++idx) draw_cell(idx);
  }
  return map;
}

}  // namespace sttram::fault
