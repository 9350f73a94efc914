// Workload generation for the traffic engine: synthetic open-loop
// Poisson streams, drawn a block at a time, and CSV access traces.
// (Closed-loop traffic is generated on the fly inside the simulator,
// since its arrivals depend on completions.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sttram/engine/request.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::engine {

/// Open-loop Poisson stream: exponential interarrivals, Bernoulli
/// read/write mix, uniformly random bank.  Deterministic per seed.
struct PoissonWorkloadConfig {
  Second mean_interarrival{0.0};  ///< across all banks
  double read_fraction = 0.7;
  std::size_t banks = 1;
  std::uint64_t seed = 1;
};

/// Draws the stream a block at a time, as the controller's
/// ChannelWorkload does, so no caller holds it whole: the blocks of any
/// split concatenate to the same requests.  Throws InvalidArgument on a
/// config the stream cannot honor.
class PoissonWorkload {
 public:
  explicit PoissonWorkload(const PoissonWorkloadConfig& config);

  /// Writes the stream's next `count` requests, ids continuing from the
  /// last block's (the first is 0), to out[0, count).
  void fill(std::size_t count, Request* out);

 private:
  Xoshiro256 rng_;
  double mean_interarrival_;
  double read_fraction_;
  std::size_t banks_;
  double clock_ = 0.0;
  std::uint64_t next_id_ = 0;
};

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
