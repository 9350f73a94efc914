#include "sttram/engine/workload.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <string>

#include "sttram/common/error.hpp"
#include "sttram/common/token.hpp"
#include "sttram/io/csv.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::engine {
namespace {

bool parse_op(const std::string& field, Op& op) {
  if (field == "read" || field == "r" || field == "R") {
    op = Op::kRead;
    return true;
  }
  if (field == "write" || field == "w" || field == "W") {
    op = Op::kWrite;
    return true;
  }
  return false;
}

}  // namespace

std::vector<Request> generate_poisson_workload(
    const PoissonWorkloadConfig& config) {
  require(config.mean_interarrival.value() > 0.0,
          "generate_poisson_workload: mean_interarrival must be > 0");
  require(config.banks > 0, "generate_poisson_workload: banks must be > 0");
  require(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
          "generate_poisson_workload: read_fraction must be in [0, 1]");
  Xoshiro256 rng(config.seed);
  std::vector<Request> out;
  out.reserve(config.requests);
  double clock = 0.0;
  for (std::size_t k = 0; k < config.requests; ++k) {
    clock += sample_exponential(rng, config.mean_interarrival.value());
    Request r;
    r.id = k;
    r.arrival = Second(clock);
    r.op = rng.next_double() < config.read_fraction ? Op::kRead : Op::kWrite;
    r.bank = static_cast<std::uint32_t>(rng.next_u64() % config.banks);
    out.push_back(r);
  }
  return out;
}

std::vector<Request> load_trace_csv(std::istream& in) {
  CsvReader reader(in);
  std::vector<Request> out;
  std::vector<std::string> fields;
  while (reader.read_row(fields)) {
    require(fields.size() >= 3,
            "load_trace_csv: expected arrival_s,op,bank — got " +
                std::to_string(fields.size()) + " field(s) in row " +
                std::to_string(reader.rows_read()));
    const std::optional<double> arrival = parse_number(fields[0]);
    if (!arrival) {
      // A non-numeric first column in the first row is the header.
      if (out.empty() && reader.rows_read() == 1) continue;
      throw InvalidArgument("load_trace_csv: bad arrival '" + fields[0] +
                            "' in row " + std::to_string(reader.rows_read()));
    }
    require(*arrival >= 0.0, "load_trace_csv: arrival must be >= 0 in row " +
                                 std::to_string(reader.rows_read()));
    Request r;
    r.arrival = Second(*arrival);
    if (!parse_op(fields[1], r.op)) {
      throw InvalidArgument("load_trace_csv: bad op '" + fields[1] +
                            "' in row " + std::to_string(reader.rows_read()) +
                            " (want read/write)");
    }
    const std::optional<std::int64_t> bank = parse_integer(fields[2]);
    if (!bank || *bank < 0 ||
        *bank > std::numeric_limits<std::uint32_t>::max()) {
      throw InvalidArgument("load_trace_csv: bad bank '" + fields[2] +
                            "' in row " + std::to_string(reader.rows_read()) +
                            " (want an integer in [0, 2^32))");
    }
    r.bank = static_cast<std::uint32_t>(*bank);
    r.id = out.size();
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival < b.arrival;
                   });
  for (std::size_t k = 0; k < out.size(); ++k) out[k].id = k;
  return out;
}

}  // namespace sttram::engine
