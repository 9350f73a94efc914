#include "sttram/engine/controller/command.hpp"

#include <cstdio>

#include "sttram/cell/cell.hpp"
#include "sttram/common/error.hpp"
#include "sttram/sim/throughput.hpp"

namespace sttram::engine {

BankTiming scheme_bank_timing(SchemeId scheme,
                              const CostComparisonConfig& cost) {
  const SchemeCost read = scheme_cost(scheme, cost);
  BankTiming t;
  t.read_service = read.worst_latency();
  t.read_energy = read.worst_energy();
  t.write_service = write_service_time(cost.timing);
  t.write_energy = write_access_energy(cost);
  return t;
}

}  // namespace sttram::engine

namespace sttram::engine::controller {

CommandTiming scheme_command_timing(SchemeId scheme,
                                    const CostComparisonConfig& cost) {
  const BankTiming bank = scheme_bank_timing(scheme, cost);
  CommandTiming t;
  t.t_read = bank.read_service;
  t.t_write = bank.write_service;
  t.e_read = bank.read_energy;
  t.e_write = bank.write_energy;
  // Row management: word-line select + bit-line bias settle on open,
  // the symmetric restore on close — both the calibrated precharge time.
  t.t_rcd = cost.timing.t_precharge;
  t.t_rp = cost.timing.t_precharge;
  return t;
}

namespace {

/// Maps one read-operation phase to its command kind and scheduler
/// label.  Phase names come from sense/read_operation.cpp; anything
/// write-flavoured ("erase(write 0)", "write-back") is a WR, the
/// leading bit-line precharge is the ACT analog, and the sensing phases
/// are RD sub-commands.
Command phase_to_command(const ReadPhase& phase, std::size_t read_index) {
  Command c;
  c.start = phase.start;
  c.duration = phase.duration;
  c.energy = phase.energy;
  if (phase.name.find("write") != std::string::npos) {
    c.kind = CommandKind::kWrite;
    c.label = phase.name.find("erase") != std::string::npos ? "WR(erase)"
                                                            : "WR(restore)";
  } else if (phase.name == "precharge") {
    c.kind = CommandKind::kActivate;
    c.label = "ACT";
  } else {
    c.kind = CommandKind::kRead;
    c.label = "RD" + std::to_string(read_index);
  }
  return c;
}

}  // namespace

std::vector<Command> read_command_sequence(SchemeId scheme,
                                           const CostComparisonConfig& cost,
                                           bool bit) {
  // Execute the scheme's calibrated read on a nominal cell — the read
  // compare_scheme_costs() runs — so the sequence carries the real phase
  // durations, not a re-derivation.
  OneT1JCell cell;
  cell.mtj().force_state(from_bit(bit));
  const ReadResult result = execute_scheme_read(scheme, cost, cell);

  std::vector<Command> sequence;
  sequence.reserve(result.phases.size() + 1);
  std::size_t read_index = 0;
  for (const ReadPhase& phase : result.phases) {
    Command c = phase_to_command(
        phase, phase.name.rfind("read", 0) == 0 ? ++read_index : read_index);
    // The sense/latch step is part of the final RD data phase.
    if (c.kind == CommandKind::kRead &&
        phase.name.rfind("sense", 0) == 0) {
      c.label = "RD" + std::to_string(read_index) + "+latch";
    }
    sequence.push_back(std::move(c));
  }
  // Close the row: the PRE analog at the calibrated precharge time.
  Command pre;
  pre.kind = CommandKind::kPrecharge;
  pre.label = "PRE";
  pre.start = result.latency;
  pre.duration = cost.timing.t_precharge;
  sequence.push_back(std::move(pre));
  return sequence;
}

std::string render_command_sequence(const std::vector<Command>& sequence) {
  require(!sequence.empty(), "render_command_sequence: empty sequence");
  Second total{0.0};
  for (const Command& c : sequence) {
    total = max(total, c.start + c.duration);
  }
  require(total.value() > 0.0,
          "render_command_sequence: zero-length sequence");
  constexpr int kColumns = 56;
  const double scale = kColumns / total.value();
  std::string out;
  for (const Command& c : sequence) {
    const int begin = static_cast<int>(c.start.value() * scale);
    int width = static_cast<int>(c.duration.value() * scale);
    if (width < 1) width = 1;
    char head[32];
    std::snprintf(head, sizeof(head), "%-12s |", c.label.c_str());
    out += head;
    out.append(static_cast<std::size_t>(begin), ' ');
    out.append(static_cast<std::size_t>(width), '#');
    char tail[48];
    std::snprintf(tail, sizeof(tail), "  %.2f ns\n",
                  c.duration.value() * 1e9);
    out += tail;
  }
  char footer[64];
  std::snprintf(footer, sizeof(footer), "%-12s |%s total %.2f ns\n", "", "",
                total.value() * 1e9);
  out += footer;
  return out;
}

}  // namespace sttram::engine::controller
