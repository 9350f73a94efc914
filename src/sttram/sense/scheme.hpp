// The sensing-scheme table: one SchemeId and one row of facts per scheme,
// and, with execute_scheme_read in sim/timing_energy.cpp, the only code
// that branches on a scheme (DESIGN.md §16).
//
// Each SM0/SM1 closed form is written once, over bit-line voltages, as
// a template the margins.hpp classes run on Volts and the batch kernels
// on simd::Vec<W>.  The bodies are always inlined: an out-of-line copy
// from a per-width TU, built with its -m flags, could be the one the
// linker keeps for every caller (CONTRIBUTING, "Adding a SIMD kernel").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/sense/margins.hpp"

namespace sttram {

/// The sensing schemes, in the yield record's row order (YieldResult,
/// YieldMarginsSoA rows 2s and 2s + 1).
enum class SchemeId : std::uint8_t {
  kConventional,    ///< one read against a shared V_REF
  kReferenceCell,   ///< one read against a per-column reference pair
  kDestructive,     ///< Jeong-2003 self-reference (erase + write-back)
  kNondestructive,  ///< the paper's scheme (two reads, no write)
};

inline constexpr std::size_t kSchemeCount = 4;

/// What the rest of the code may know about a scheme.
struct SchemeRow {
  SchemeId id;
  const char* key;    ///< campaign / `--scheme` spelling, metric prefix
  const char* label;  ///< printed tables, reports' `scheme` field
  bool writes_cell;   ///< the read erases the cell and writes it back
  bool externally_referenced;  ///< a drifted cell misreads
  /// Has a sense/read_operation flow, so traffic, the controller, march
  /// tests and the cost table can run it.
  bool has_read_flow;
};

inline constexpr std::array<SchemeRow, kSchemeCount> kSchemeTable{{
    {SchemeId::kConventional, "conventional", "conventional", false, true,
     true},
    {SchemeId::kReferenceCell, "reference_cell", "reference-cell", false,
     true, false},
    {SchemeId::kDestructive, "destructive", "destructive self-ref", true,
     false, true},
    {SchemeId::kNondestructive, "nondestructive", "nondestructive self-ref",
     false, false, true},
}};

[[gnu::always_inline]] [[nodiscard]] constexpr std::size_t scheme_index(
    SchemeId id) {
  return static_cast<std::size_t>(id);
}
[[nodiscard]] constexpr const SchemeRow& scheme_row(SchemeId id) {
  return kSchemeTable[scheme_index(id)];
}

/// The scheme whose key is `key`; throws InvalidArgument otherwise.
[[nodiscard]] SchemeId scheme_from_key(std::string_view key);

/// Throws InvalidArgument naming scheme `id` as one without a read flow.
[[noreturn]] void throw_no_read_flow(SchemeId id);

// ------------------------------------------------------- closed forms

/// SM0 and SM1 in one lane type: Volt, or simd::Vec<W> in the kernels.
template <class V>
struct MarginPair {
  V sm0;
  V sm1;
};

/// Conventional sensing (Eq. (1)-(2)), one read against a reference:
///   SM0 = V_REF - V_BL,L   and   SM1 = V_BL,H - V_REF.
template <class V>
[[gnu::always_inline]] inline MarginPair<V> conventional_margins(
    V v_bl_low, V v_bl_high, V v_ref) {
  return {v_ref - v_bl_low, v_bl_high - v_ref};
}

/// The midpoint (V_L + V_H) / 2 of a P / AP reference pair.
template <class V>
[[gnu::always_inline]] inline V reference_midpoint(V v_low, V v_high) {
  return 0.5 * (v_low + v_high);
}

/// Reference-cell sensing: conventional sensing against the midpoint of
/// the column's reference pair.
template <class V>
[[gnu::always_inline]] inline MarginPair<V> reference_cell_margins(
    V v_bl_low, V v_bl_high, V v_ref_low, V v_ref_high) {
  return conventional_margins(v_bl_low, v_bl_high,
                              reference_midpoint(v_ref_low, v_ref_high));
}

/// Destructive self-reference, the first read at I1 against the second
/// read V_BL2 of the erased (low) cell at I2:
///   SM0 = V_BL2 - V_BL1,L   and   SM1 = V_BL1,H - V_BL2.
template <class V>
[[gnu::always_inline]] inline MarginPair<V> destructive_margins(
    V v_bl1_low, V v_bl1_high, V v_bl2_erased) {
  return {v_bl2_erased - v_bl1_low, v_bl1_high - v_bl2_erased};
}

/// Nondestructive self-reference, the first read at I1 against the
/// second read at I2 scaled by the divider ratio alpha (a double on
/// Volts, a Vec<W> on Vec<W>):
///   SM0 = alpha V_BL2,L - V_BL1,L   and   SM1 = V_BL1,H - alpha V_BL2,H.
template <class V, class A>
[[gnu::always_inline]] inline MarginPair<V> nondestructive_margins(
    V v_bl1_low, V v_bl1_high, V v_bl2_low, V v_bl2_high, A alpha) {
  return {alpha * v_bl2_low - v_bl1_low, v_bl1_high - alpha * v_bl2_high};
}

// ------------------------------------------------- operating points

// DestructiveSelfReference::paper_beta(),
// NondestructiveSelfReference::paper_beta() and
// ConventionalSensing::midpoint_reference() on (nominal, r_access),
// memoized in the thread-local op cache (device/op_cache.hpp).
double cached_destructive_beta(const MtjParams& nominal, Ohm r_access,
                               const SelfRefConfig& config);
double cached_nondestructive_beta(const MtjParams& nominal, Ohm r_access,
                                  const SelfRefConfig& config);
Volt cached_shared_v_ref(const MtjParams& nominal, Ohm r_access,
                         Ampere i_read);

/// The point scheme `id` reads at on `device` with `r_access`, through
/// the cached_* calls: the equal-margin `beta` of a self-reference scheme
/// (Eq. (5), Eq. (10)), kept as given when `beta` > 0, or the shared
/// midpoint `v_ref` at I_max of conventional sensing.  Reference-cell
/// sensing gets zeros: each column's reference pair sets its V_REF.
[[nodiscard]] OperatingPoint designed_point(SchemeId id,
                                            const MtjParams& device,
                                            Ohm r_access,
                                            const SelfRefConfig& selfref,
                                            double beta = 0.0);

/// The read currents scheme `id` drives through a cell with `device`'s
/// parameters, in order: I_max for a referenced scheme, I_max / beta then
/// I_max for a self-reference one (erase and write-back pulses switch
/// the cell on purpose and are not reads).
[[nodiscard]] std::vector<Ampere> scheme_read_currents(
    SchemeId id, const MtjParams& device, Ohm r_access,
    const SelfRefConfig& selfref);

/// The margins of a cell (`model`, `access`) scheme `id` reads at `point`
/// (designed_point's).  Throws for a scheme without a read flow.
[[nodiscard]] SenseMargins read_margins(SchemeId id, const RiModel& model,
                                        const AccessDeviceModel& access,
                                        const SelfRefConfig& selfref,
                                        const OperatingPoint& point);

}  // namespace sttram
