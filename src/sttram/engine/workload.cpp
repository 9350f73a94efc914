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

PoissonWorkload::PoissonWorkload(const PoissonWorkloadConfig& config)
    : rng_(config.seed),
      mean_interarrival_(config.mean_interarrival.value()),
      read_fraction_(config.read_fraction),
      banks_(config.banks) {
  require(mean_interarrival_ > 0.0,
          "PoissonWorkload: mean_interarrival must be > 0");
  require(banks_ > 0, "PoissonWorkload: banks must be > 0");
  require(read_fraction_ >= 0.0 && read_fraction_ <= 1.0,
          "PoissonWorkload: read_fraction must be in [0, 1]");
}

void PoissonWorkload::fill(std::size_t count, Request* out) {
  for (std::size_t k = 0; k < count; ++k) {
    clock_ += sample_exponential(rng_, mean_interarrival_);
    Request& r = out[k];
    r = Request{};
    r.id = next_id_++;
    r.arrival = Second(clock_);
    r.op = rng_.next_double() < read_fraction_ ? Op::kRead : Op::kWrite;
    r.bank = static_cast<std::uint32_t>(rng_.next_u64() % banks_);
  }
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
