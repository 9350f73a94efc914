// Workload generation for the traffic engine: synthetic open-loop
// Poisson streams and CSV access traces.  (Closed-loop traffic is
// generated on the fly inside the simulator, since its arrivals depend
// on completions.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sttram/engine/request.hpp"

namespace sttram::engine {

/// Open-loop Poisson stream: exponential interarrivals, Bernoulli
/// read/write mix, uniformly random bank.  Deterministic per seed.
struct PoissonWorkloadConfig {
  std::size_t requests = 0;
  Second mean_interarrival{0.0};  ///< across all banks
  double read_fraction = 0.7;
  std::size_t banks = 1;
  std::uint64_t seed = 1;
};

std::vector<Request> generate_poisson_workload(
    const PoissonWorkloadConfig& config);

/// Loads an access trace.  Format: a CSV with columns
///   arrival_s,op,bank
/// where `op` is read/r/R or write/w/W; a header row is skipped when the
/// first column does not parse as a number.  Numbers are strict tokens
/// (common/token.hpp): the arrival a finite value >= 0, the bank an
/// integer in [0, 2^32).  Rows are sorted by arrival (stable, so equal
/// arrivals keep file order) and re-numbered.  Throws InvalidArgument
/// naming the row on a malformed one.
std::vector<Request> load_trace_csv(std::istream& in);

}  // namespace sttram::engine
