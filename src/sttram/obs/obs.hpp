// Umbrella header for the observability layer: the metrics registry
// (counters / gauges / histograms + JSON export), the one
// instrumentation scope with its phase profiler, and the Chrome
// trace-event recorder the scope feeds.  See DESIGN.md §8, §11 and the
// "Telemetry & profiling" section of the README.
#pragma once

#include "sttram/obs/histogram.hpp"  // IWYU pragma: export
#include "sttram/obs/metrics.hpp"    // IWYU pragma: export
#include "sttram/obs/profile.hpp"    // IWYU pragma: export
#include "sttram/obs/trace.hpp"      // IWYU pragma: export
