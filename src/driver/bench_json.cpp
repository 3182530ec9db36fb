#include "driver/bench_json.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace sparta::driver {
namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Metric/config names are controlled identifiers; escape the JSON
/// specials anyway so a stray quote cannot corrupt the document.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  out += '"';
  return out;
}

}  // namespace

void BenchJson::Set(const std::string& config, const std::string& metric,
                    double value) {
  configs_[config][metric] = value;
}

void BenchJson::SetLatency(const std::string& config,
                           const LatencyResult& result) {
  Set(config, "mean_virtual_ms", result.MeanMs());
  Set(config, "p50_virtual_ms",
      result.latency_ns.empty()
          ? 0.0
          : static_cast<double>(result.latency_ns.Percentile(50)) / 1e6);
  Set(config, "p99_virtual_ms", result.P99Ms());
  Set(config, "postings", static_cast<double>(result.postings));
  if (result.recall_measured) Set(config, "recall", result.mean_recall);
}

std::string BenchJson::ToJson() const {
  std::string out = "{\n";
  out += "  \"bench\": " + Quote(name_) + ",\n";
  out += "  \"schema\": 1,\n";
  out += "  \"configs\": {";
  bool first_config = true;
  for (const auto& [config, metrics] : configs_) {
    out += first_config ? "\n" : ",\n";
    first_config = false;
    out += "    " + Quote(config) + ": {";
    bool first_metric = true;
    for (const auto& [metric, value] : metrics) {
      out += first_metric ? "\n" : ",\n";
      first_metric = false;
      out += "      " + Quote(metric) + ": " + FormatNumber(value);
    }
    out += "\n    }";
  }
  out += "\n  }\n}\n";
  return out;
}

bool BenchJson::Write(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(dir + "/BENCH_" + name_ + ".json");
  if (!out) return false;
  out << ToJson();
  return static_cast<bool>(out);
}

}  // namespace sparta::driver
