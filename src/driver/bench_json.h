// Machine-readable benchmark output: results/BENCH_<name>.json.
//
// Each bench collects per-config metric scalars (mean/p50/p99 virtual
// milliseconds, postings scanned, recall, contention aggregates) and
// writes one JSON document alongside its CSVs. The committed files are
// the perf baseline that tools/bench_compare.py gates CI against, so the
// serialization is deterministic: configs and metrics sorted by name,
// fixed "%.9g" number formatting.
#pragma once

#include <map>
#include <string>

#include "driver/bench_driver.h"

namespace sparta::driver {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// Records one metric scalar under a config (e.g. "Sparta/w8").
  void Set(const std::string& config, const std::string& metric,
           double value);

  /// Records the standard latency metrics of one measured config:
  /// mean/p50/p99 virtual ms, postings scanned, and recall when it was
  /// measured (an unmeasured recall is omitted, never written as 0).
  void SetLatency(const std::string& config, const LatencyResult& result);

  std::string ToJson() const;

  /// Writes <dir>/BENCH_<name>.json (creating dir). Returns false on
  /// I/O failure.
  bool Write(const std::string& dir) const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::map<std::string, std::map<std::string, double>> configs_;
};

}  // namespace sparta::driver
