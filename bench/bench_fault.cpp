// Fault bench: SECDED kernel throughput, fault-map generation cost,
// per-access recovery model cost, and the reproduction claims of the
// fault story — every scheme catches the static defects, only the
// externally-referenced schemes lose the drift outliers, and ECC +
// retry cut the word-error rate.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/fault/fault.hpp"
#include "sttram/io/table.hpp"

using namespace sttram;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::heading("Fault", "injection, SECDED recovery and march coverage");

  // --- SECDED(72,64) kernel throughput ------------------------------
  constexpr int kWords = 1 << 20;
  std::uint64_t acc = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kWords; ++i) {
    const std::uint64_t word = 0x9e3779b97f4a7c15ULL * (i + 1);
    fault::EccCodeword cw = fault::ecc_encode(word);
    fault::ecc_flip_bit(cw, i % fault::kEccCodewordBits);
    const fault::EccDecode decoded = fault::ecc_decode(cw);
    acc += decoded.data + (decoded.corrected ? 1 : 0);
  }
  const double ecc_ns = seconds_since(t0) / kWords * 1e9;
  std::printf("SECDED encode + flip + decode: %.1f ns/word "
              "(%d words, checksum %llx)\n",
              ecc_ns, kWords, static_cast<unsigned long long>(acc & 0xffff));

  // --- fault-map generation, serial vs threaded ---------------------
  const ArrayGeometry geometry{256, 256};
  const fault::FaultConfig campaign =
      fault::FaultConfig::with_total_density(0.02);
  t0 = std::chrono::steady_clock::now();
  const fault::FaultMap serial =
      fault::generate_fault_map(geometry, campaign, 7);
  const double serial_ms = seconds_since(t0) * 1e3;
  engine::ThreadPool pool(4);
  t0 = std::chrono::steady_clock::now();
  const fault::FaultMap threaded =
      fault::generate_fault_map(geometry, campaign, 7, &pool);
  const double threaded_ms = seconds_since(t0) * 1e3;
  bool identical = true;
  for (std::size_t r = 0; r < geometry.rows && identical; ++r) {
    for (std::size_t c = 0; c < geometry.cols; ++c) {
      if (serial.type_at(r, c) != threaded.type_at(r, c) ||
          serial.param_at(r, c) != threaded.param_at(r, c)) {
        identical = false;
        break;
      }
    }
  }
  std::printf("fault map 256x256 @ density 0.02: %zu faults, "
              "%.2f ms serial, %.2f ms on 4 threads\n",
              serial.total(), serial_ms, threaded_ms);

  // --- per-access recovery model ------------------------------------
  fault::TrafficFaultConfig tfc;
  tfc.raw_ber = 1e-3;
  tfc.ecc = true;
  tfc.max_attempts = 3;
  fault::TrafficFaultModel model(tfc);
  constexpr std::uint64_t kAccesses = 200000;
  std::uint64_t corrected = 0, uncorrectable = 0;
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t id = 0; id < kAccesses; ++id) {
    const engine::ReadFaultOutcome outcome = model.read_outcome(id);
    corrected += outcome.corrected ? 1 : 0;
    uncorrectable += outcome.uncorrectable ? 1 : 0;
  }
  const double access_ns = seconds_since(t0) / kAccesses * 1e9;
  std::printf("recovery model @ BER 1e-3: %.0f ns/access "
              "(%llu corrected, %llu uncorrectable of %llu)\n\n",
              access_ns, static_cast<unsigned long long>(corrected),
              static_cast<unsigned long long>(uncorrectable),
              static_cast<unsigned long long>(kAccesses));

  // --- march coverage per scheme ------------------------------------
  const ArrayGeometry small{64, 64};
  const fault::FaultMap map = fault::generate_fault_map(small, campaign, 11);
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());
  fault::MarchCoverageReport reports[3];
  const SchemeId schemes[] = {SchemeId::kConventional,
                              SchemeId::kDestructive,
                              SchemeId::kNondestructive};
  TextTable t({"scheme", "injected", "detected", "coverage", "extra"});
  for (int s = 0; s < 3; ++s) {
    TestableArray array(small, variation, 11, SelfRefConfig{}, Volt(0.0));
    reports[s] = fault::run_march_with_faults(array, map, schemes[s]);
    t.add_row({scheme_row(schemes[s]).label,
               std::to_string(reports[s].injected_cells),
               std::to_string(reports[s].detected_cells),
               format_percent(reports[s].coverage()),
               std::to_string(reports[s].extra_flags)});
  }
  std::printf("March C- coverage, 64x64 @ density 0.02:\n%s\n",
              t.to_string().c_str());

  // --- BER overlay: raw vs post-ECC ---------------------------------
  YieldConfig yc;
  yc.geometry = ArrayGeometry{64, 64};
  // SECDED's operating regime: hard faults dominate, moderate transient
  // noise (expected errors per 72-bit word well below 1).
  yc.variation = VariationParams::none();
  fault::BerConfig no_ecc;
  no_ecc.ecc = false;
  no_ecc.noise_sigma = Volt(5e-3);
  fault::BerConfig ecc_retry;
  ecc_retry.ecc = true;
  ecc_retry.noise_sigma = Volt(5e-3);
  ecc_retry.read_attempts = 3;
  const fault::FaultYieldResult raw =
      fault::run_yield_with_faults(yc, campaign, no_ecc);
  const fault::FaultYieldResult recovered =
      fault::run_yield_with_faults(yc, campaign, ecc_retry);
  const fault::SchemeBer& raw_nd = raw.scheme(SchemeId::kNondestructive);
  const fault::SchemeBer& recovered_nd =
      recovered.scheme(SchemeId::kNondestructive);
  std::printf("nondestructive raw BER %.3g -> post-ECC+retry BER %.3g "
              "(WER %.3g)\n\n",
              raw_nd.raw_ber, recovered_nd.post_ecc_ber,
              recovered_nd.post_ecc_wer);

  std::printf("Reproduction / extension claims:\n");
  bench::claim("threaded fault map is bit-identical to serial", identical);
  const auto class_coverage = [](const fault::MarchCoverageReport& report,
                                 FaultType type) {
    for (const fault::FaultClassCoverage& c : report.classes) {
      if (c.type == type) return c.coverage();
    }
    return 1.0;
  };
  bench::claim("every scheme catches all stuck-at faults",
               class_coverage(reports[0], FaultType::kStuckAtZero) == 1.0 &&
                   class_coverage(reports[1], FaultType::kStuckAtZero) == 1.0 &&
                   class_coverage(reports[2], FaultType::kStuckAtZero) == 1.0 &&
                   class_coverage(reports[0], FaultType::kStuckAtOne) == 1.0 &&
                   class_coverage(reports[1], FaultType::kStuckAtOne) == 1.0 &&
                   class_coverage(reports[2], FaultType::kStuckAtOne) == 1.0);
  bench::claim("drift outliers fail conventional, survive self-reference",
               class_coverage(reports[0], FaultType::kDriftOutlier) == 1.0 &&
                   class_coverage(reports[1], FaultType::kDriftOutlier) ==
                       0.0 &&
                   class_coverage(reports[2], FaultType::kDriftOutlier) ==
                       0.0);
  bench::claim("ECC + retry cut the residual BER",
               recovered_nd.post_ecc_ber < raw_nd.post_ecc_ber);
  bench::claim("drift gives conventional the larger hard-error fraction",
               raw.scheme(SchemeId::kConventional).hard_bit_fraction >
                   raw_nd.hard_bit_fraction);

  return bench::exit_code();
}
