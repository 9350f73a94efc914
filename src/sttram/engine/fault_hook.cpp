#include "sttram/engine/fault_hook.hpp"

#include "sttram/obs/metrics.hpp"

namespace sttram::engine {

void publish_fault_counters(const TrafficFaultStats& stats) {
  STTRAM_OBS_ADD("fault.retries", stats.retries);
  STTRAM_OBS_ADD("fault.raw_bit_errors", stats.raw_bit_errors);
  STTRAM_OBS_ADD("fault.ecc_corrected", stats.corrected_words);
  STTRAM_OBS_ADD("fault.ecc_uncorrectable", stats.uncorrectable_words);
  STTRAM_OBS_ADD("fault.silent_corruptions", stats.silent_corruptions);
}

}  // namespace sttram::engine
