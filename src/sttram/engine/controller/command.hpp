// Command-level timing tables for the chip-scale memory controller.
//
// The controller decomposes every request into a DRAM-analog command
// sequence — ACT (row open), RD/WR (data access), PRE (row close) —
// whose durations derive from the calibrated read/write model
// (sim/timing_energy + sense/read_operation), not from free constants:
//
//  * RD carries the scheme's full calibrated read occupancy.  For the
//    self-reference schemes that is the two-phase sensing flow (first
//    read + second read + sense), so the nondestructive scheme's
//    latency advantage — and the destructive scheme's two embedded
//    write pulses — are charged exactly where a command scheduler sees
//    them: at RD time.
//  * ACT and PRE model row management (word-line select + bit-line bias
//    settle, and the symmetric restore), both priced at the calibrated
//    bit-line precharge time.  A row hit skips both; a row miss pays
//    ACT; a row conflict pays PRE + ACT.
//
// Two granularities share the derivation: CommandTiming is the
// collapsed per-scheme table the hot scheduling loop uses (pure
// arithmetic, no per-command event objects), while
// read_command_sequence() expands one access into labelled, offset
// Commands by executing the scheme's read operation on a nominal cell —
// the source of the DESIGN.md §13 timing diagrams and the
// command-sequence tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttram/common/units.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/sim/timing_energy.hpp"

namespace sttram::engine::controller {

/// The controller's command alphabet.
enum class CommandKind : std::uint8_t {
  kActivate,   ///< ACT: open a row (word-line select + bit-line bias)
  kRead,       ///< RD: one sensing phase of the scheme's read flow
  kWrite,      ///< WR: a write pulse (stores data; destructive reads
               ///<     embed two of these)
  kPrecharge,  ///< PRE: close the row (bit-line restore)
};

/// One timed command of a decomposed access (reporting/test granularity;
/// the scheduler itself uses the collapsed CommandTiming sums).
struct Command {
  CommandKind kind = CommandKind::kRead;
  std::string label;     ///< e.g. "ACT", "RD1", "WR(erase)", "PRE"
  Second start{0.0};     ///< offset from the sequence start
  Second duration{0.0};
  Joule energy{0.0};
};

/// Collapsed per-scheme command-timing table.
struct CommandTiming {
  Second t_rcd{0.0};    ///< ACT: row open before the first RD/WR can issue
  Second t_rp{0.0};     ///< PRE: row close before the next ACT
  Second t_read{0.0};   ///< RD: full calibrated read occupancy (both
                        ///<     sensing phases; write pulses included for
                        ///<     the destructive scheme)
  Second t_write{0.0};  ///< WR: calibrated write service
  // The calibrated read operations charge no energy for bit-line
  // precharge (see sense/read_operation.cpp), so ACT/PRE are free today;
  // the fields stay explicit so a future calibration can price row
  // management without touching the scheduler.
  Joule e_act{0.0};
  Joule e_pre{0.0};
  Joule e_read{0.0};
  Joule e_write{0.0};

  /// Bank occupancy of one access given the row-buffer outcome.
  [[nodiscard]] Second occupancy(bool is_read, bool row_hit,
                                 bool row_open) const {
    Second t = is_read ? t_read : t_write;
    if (!row_hit) {
      t += t_rcd;                // row miss: ACT
      if (row_open) t += t_rp;   // row conflict: PRE first
    }
    return t;
  }
};

/// Derives the table from the calibrated model.  t_read/t_write and the
/// access energies equal scheme_bank_timing() exactly, so a controller
/// run whose accesses are all row hits reproduces the flat bank
/// simulator's service times; t_rcd and t_rp are the calibrated
/// bit-line precharge time.
CommandTiming scheme_command_timing(SchemeId scheme,
                                    const CostComparisonConfig& cost);

/// Expands one read access (row initially closed, closed again after)
/// into its labelled command sequence by executing the scheme's read
/// operation on a nominal cell storing `bit` (execute_scheme_read).
/// Deterministic: pure function of (scheme, cost, bit).  Throws
/// InvalidArgument for a scheme without a read flow.
std::vector<Command> read_command_sequence(SchemeId scheme,
                                           const CostComparisonConfig& cost,
                                           bool bit = true);

/// Renders a sequence as a one-scale ASCII timing diagram (one row per
/// command, column position proportional to time) — the DESIGN.md §13
/// figure and the `sttram_cli traffic --controller` footer.
std::string render_command_sequence(const std::vector<Command>& sequence);

}  // namespace sttram::engine::controller
