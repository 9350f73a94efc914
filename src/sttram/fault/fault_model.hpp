// Fault-injection layer: decides *which* cells of an array carry faults
// and with what parameters, with probabilities tied to the device
// physics where the literature provides a model.
//
// The fault taxonomy follows the STT-MRAM testing literature (DESIGN.md
// §10): static stuck-at and transition faults (manufacturing defects,
// uniform densities), retention faults (weak thermal stability),
// resistance-drift outliers (barrier-thickness excursions) and
// read-disturb victims.  The read-disturb class is the physically
// derived one: a "weak" cell has a degraded critical current, and its
// flip probability comes from the thermal-activation switching model
// evaluated at the read currents the selected sensing scheme actually
// applies (I1 = I_max/beta and I2 = I_max for the self-reference
// schemes, a single I_max read for conventional sensing).
//
// Everything is seeded: cell i draws from `master.fork(i)`, so a map is
// bit-identical across runs, machines and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/common/parallel.hpp"
#include "sttram/sense/read_operation.hpp"
#include "sttram/sim/march.hpp"

namespace sttram::fault {

/// Densities and physical knobs of one injection campaign.
struct FaultConfig {
  // Per-cell probabilities of the static defect classes (first match in
  // this order wins; a cell carries at most one fault).
  double stuck_at_density = 0.0;    ///< split evenly between SA0 / SA1
  double transition_density = 0.0;  ///< split evenly between up / down
  double retention_density = 0.0;
  double drift_density = 0.0;

  /// Fraction of cells with a degraded critical current ("weak" cells);
  /// only weak cells can become read-disturb victims.
  double weak_cell_fraction = 0.0;
  /// The weak cells' I_crit as a fraction of the nominal one.  The
  /// disturb rate is exponentially sensitive to this: at 0.6 the paper's
  /// I_max sits at ~80 % of the weak cell's intrinsic critical current
  /// (thermally activated, ~1e-3 flip probability per read); near 0.5
  /// the read current reaches I_c0 and every exposure flips the cell.
  double weak_icrit_factor = 0.6;
  /// Resistance scale of a drift outlier (TestableArray applies it as a
  /// common-mode factor to both states).
  double drift_factor = 1.8;
  /// Retention decay horizon in array operations (0 = one full sweep;
  /// see FaultType::kRetention).
  double retention_decay_ops = 0.0;
  /// Reads a cell is exposed to between scrubs: a weak cell becomes a
  /// read-disturb victim with probability 1 - (1 - p_read)^exposure.
  std::uint64_t exposure_reads = 10;

  /// Sensing scheme whose read currents drive the disturb physics.
  SchemeId scheme = SchemeId::kNondestructive;
  SelfRefConfig selfref{};     ///< I_max and divider ratio
  ReadTimingParams timing{};   ///< read duration = t_precharge + t_sense
  MtjParams nominal = MtjParams::paper_calibrated();

  /// A single-knob campaign: splits `total` across the classes with the
  /// survey's rough defect mix (30 % stuck-at, 25 % transition, 20 %
  /// retention, 15 % drift) and makes 10 % of cells weak.
  static FaultConfig with_total_density(double total);
};

/// The outcome of an injection campaign: which cell has which fault.
class FaultMap {
 public:
  FaultMap() = default;
  explicit FaultMap(ArrayGeometry geometry);

  [[nodiscard]] const ArrayGeometry& geometry() const { return geometry_; }
  [[nodiscard]] FaultType type_at(std::size_t row, std::size_t col) const;
  [[nodiscard]] double param_at(std::size_t row, std::size_t col) const;
  void set(std::size_t row, std::size_t col, FaultType type,
           double param = 0.0);

  /// Number of cells carrying `type`.
  [[nodiscard]] std::size_t count(FaultType type) const;
  /// Number of faulty (non-kNone) cells.
  [[nodiscard]] std::size_t total() const;

  /// Injects every fault into the array (counts toward fault.injected).
  void apply_to(TestableArray& array) const;

 private:
  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const;

  ArrayGeometry geometry_{0, 0};
  std::vector<FaultType> types_;
  std::vector<double> params_;
};

/// Probability that one read access with `scheme` flips a cell with the
/// given device parameters: the thermal-activation disturb probability
/// of device/switching, evaluated at every read current the scheme
/// applies (scheme_read_currents) for a duration of t_precharge +
/// t_sense each.
[[nodiscard]] double scheme_read_disturb_probability(
    SchemeId scheme, const MtjParams& params, const SelfRefConfig& selfref,
    const ReadTimingParams& timing);

/// Generates a fault map.  Cell i draws from `fork(i)` of a master
/// stream seeded with `seed`; with an executor, cells are drawn in
/// parallel into disjoint slots, so the map is bit-identical for any
/// thread count (property-tested).
[[nodiscard]] FaultMap generate_fault_map(ArrayGeometry geometry,
                                          const FaultConfig& config,
                                          std::uint64_t seed,
                                          ParallelExecutor* executor = nullptr);

}  // namespace sttram::fault
