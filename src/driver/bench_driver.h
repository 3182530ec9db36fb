// Benchmark driver: the measurement harness of §5.1.
//
// "A benchmark driver draws queries from an input queue and submits them
//  to the algorithm being tested, which uses a thread pool for
//  intra-query parallelism. ... When testing latency, the entire thread
//  pool is used by a single query. In the throughput evaluation mode,
//  queries are scheduled first-come-first-served, and a new query is
//  scheduled for execution once there are idle threads."
//
// All measurements run on the simulated machine (sim::SimExecutor) so
// that 12-core results are reproducible on any host; the page cache is
// flushed at the start of every experiment, as in the paper.
#pragma once

#include <map>
#include <memory>
#include <span>

#include "corpus/datasets.h"
#include "driver/table.h"
#include "obs/critical_path.h"
#include "obs/flame_export.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/trace_export.h"
#include "serve/coordinator.h"
#include "serve/server.h"
#include "sim/sim_executor.h"
#include "topk/algorithm.h"
#include "topk/oracle.h"
#include "topk/recall.h"
#include "util/histogram.h"

namespace sparta::driver {

struct LatencyResult {
  util::Histogram latency_ns;
  std::size_t queries = 0;
  std::size_t oom = 0;       ///< ResultStatus::kOom
  std::size_t degraded = 0;  ///< deadline- or fault-degraded (anytime)
  double mean_recall = 0.0;  ///< over non-OOM queries, degraded included
  /// False when recall was not measured (measure_recall off, or every
  /// query OOMed): mean_recall is then a placeholder, not a result.
  bool recall_measured = false;
  double mean_oom_recall = 0.0;  ///< achieved recall of the kOom queries
  std::uint64_t postings = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t faults_injected = 0;
  double mean_postings_fraction = 0.0;  ///< over non-OOM queries

  double MeanMs() const {
    return latency_ns.empty() ? 0.0 : latency_ns.Mean() / 1e6;
  }
  double P95Ms() const {
    return latency_ns.empty()
               ? 0.0
               : static_cast<double>(latency_ns.Percentile(95)) / 1e6;
  }
  double P99Ms() const {
    return latency_ns.empty()
               ? 0.0
               : static_cast<double>(latency_ns.Percentile(99)) / 1e6;
  }
  bool AllOom() const { return queries > 0 && oom == queries; }
};

struct ThroughputResult {
  double qps = 0.0;
  std::size_t queries = 0;
  std::size_t oom = 0;
  std::size_t degraded = 0;
  double mean_recall = 0.0;
};

/// One traced query run: the search result plus the exported Chrome
/// trace-event JSON and the per-kind latency-attribution rows.
struct TraceReport {
  topk::SearchResult result;
  exec::VirtualTime latency = 0;  ///< end-to-end virtual time
  std::string json;               ///< Chrome trace-event export
  std::vector<obs::AttributionRow> attribution;
};

/// Runs one query alone on a traced simulator (machine- and
/// algorithm-level spans both enabled) and exports the trace. The cost
/// model in `config` is used as given — pass coherence_miss == l1_hit
/// when byte-identical reruns matter (see obs/trace.h).
TraceReport TraceSingleQuery(const index::InvertedIndex& index,
                             const topk::Algorithm& algo,
                             const corpus::Query& query,
                             const topk::SearchParams& params,
                             sim::SimConfig config);

/// Renders a TraceReport's attribution rows as a "where the time goes"
/// table: per span kind, count, inclusive and exclusive (self) time, and
/// self time as a share of query latency.
Table AttributionTable(const TraceReport& report);

/// One profiled latency run (see obs/profiler.h): the usual latency
/// aggregates plus the contention report (accumulated over all queries),
/// the folded sample stacks, and the per-phase self-time table.
struct ProfileResult {
  LatencyResult latency;
  obs::ContentionReport contention;
  std::string folded;
  std::vector<obs::SelfTimeRow> self_times;
};

/// Renders a ProfileResult's per-structure contention rows plus the
/// per-phase self-time table as one plain-text report (the committed
/// results/contention_*.txt golden format).
std::string RenderProfileReport(const ProfileResult& result,
                                const std::string& title);

/// Renders one flight-recorder capture as a human-readable postmortem:
/// the trigger line, the attached component state, the metrics
/// snapshot, and the frozen ring tail per track. The operator-facing
/// companion to the machine-facing ExportPostmortem JSON.
std::string RenderPostmortem(const obs::Postmortem& pm);

/// Computes the critical-path decomposition of every traced, completed
/// query of a cluster run (obs/critical_path.h), in record order. The
/// cluster must have been built with config.trace.enabled.
std::vector<obs::CriticalPath> ComputeClusterCriticalPaths(
    const obs::Tracer& tracer, const serve::ClusterServeResult& run);

/// Renders critical paths as a where-the-latency-went table: one row
/// per query with queue wait, retry/hedge overhead, request/response
/// network time, shard service time and merge — columns that sum
/// exactly to the measured end-to-end latency.
Table CriticalPathTable(const std::vector<obs::CriticalPath>& paths,
                        const serve::ClusterServeResult& run);

struct OpenLoopResult {
  /// Full per-query and aggregate serving record (see serve/server.h).
  serve::ServeResult serve;
  /// Mean recall over completed non-OOM queries (degraded included) —
  /// the quality the ladder actually delivered under load.
  double mean_recall = 0.0;
};

class BenchDriver {
 public:
  explicit BenchDriver(const corpus::Dataset& dataset);

  const corpus::Dataset& dataset() const { return dataset_; }

  /// Simulated-machine configuration for this dataset with `workers`
  /// worker threads.
  sim::SimConfig MakeSimConfig(int workers) const;

  /// Latency mode: each query runs alone on a fresh page cache per
  /// *experiment* (not per query). `measure_recall` compares against the
  /// (cached) exact oracle.
  LatencyResult MeasureLatency(const topk::Algorithm& algo,
                               std::span<const corpus::Query> queries,
                               const topk::SearchParams& params, int workers,
                               bool measure_recall = true);

  /// Latency mode on an explicit simulator configuration — the entry
  /// point for fault-injection experiments: build a config with
  /// MakeSimConfig() and fill in `config.faults` before calling.
  LatencyResult MeasureLatency(const topk::Algorithm& algo,
                               std::span<const corpus::Query> queries,
                               const topk::SearchParams& params,
                               const sim::SimConfig& config,
                               bool measure_recall = true);

  /// Throughput mode: FCFS admission onto a shared pool of `workers`.
  /// `queries` must be non-empty. The first `warmup` queries (capped at
  /// queries.size() - 1) are run and drained before measurement starts —
  /// they warm the page cache but are excluded from the makespan and
  /// from every reported aggregate.
  ThroughputResult MeasureThroughput(const topk::Algorithm& algo,
                                     std::span<const corpus::Query> queries,
                                     const topk::SearchParams& params,
                                     int workers, std::size_t warmup = 0);

  /// Open-loop serving mode: arrivals come on `serve_config.arrivals`'s
  /// own schedule regardless of machine state, pass through admission
  /// control / the degradation ladder / the circuit breaker, and queue
  /// wait counts toward every query's end-to-end latency. This is the
  /// only mode that can push the machine past saturation.
  OpenLoopResult MeasureOpenLoop(const topk::Algorithm& algo,
                                 std::span<const corpus::Query> queries,
                                 const topk::SearchParams& params,
                                 const serve::ServeConfig& serve_config,
                                 int workers, bool measure_recall = true);

  /// Open-loop mode on an explicit simulator configuration — fill in
  /// `config.faults` to serve through a fault storm (the circuit-breaker
  /// experiments).
  OpenLoopResult MeasureOpenLoop(const topk::Algorithm& algo,
                                 std::span<const corpus::Query> queries,
                                 const topk::SearchParams& params,
                                 const serve::ServeConfig& serve_config,
                                 const sim::SimConfig& config,
                                 bool measure_recall = true);

  /// Traces one query on this dataset's simulated machine (see
  /// TraceSingleQuery).
  TraceReport TraceQuery(const topk::Algorithm& algo,
                         const corpus::Query& query,
                         const topk::SearchParams& params, int workers);

  /// Latency mode on a profiled simulator: `config.profile` must be
  /// enabled. Algorithm-level spans are force-enabled (they are the
  /// profiler's frames; without a tracer they cost a null check each) so
  /// samples and contention events attribute to phases. The cost model
  /// in `config` is used as given — registered-range coherence keys make
  /// the report byte-identical per seed under any cost model; pass
  /// coherence_miss == l1_hit when the latencies must also match
  /// unprofiled runs.
  ProfileResult ProfileLatency(const topk::Algorithm& algo,
                               std::span<const corpus::Query> queries,
                               const topk::SearchParams& params,
                               sim::SimConfig config,
                               bool measure_recall = true);

  /// Ground truth for (query, k), cached across calls.
  const topk::ExactTopK& Oracle(const corpus::Query& query, int k);

 private:
  /// Shared latency-mode measurement loop: runs every query alone on
  /// `executor` and aggregates. The caller owns the executor so it can
  /// inspect observers (tracer, profiler) after the loop.
  LatencyResult RunLatencyLoop(sim::SimExecutor& executor,
                               const topk::Algorithm& algo,
                               std::span<const corpus::Query> queries,
                               const topk::SearchParams& params,
                               bool measure_recall);

  const corpus::Dataset& dataset_;
  std::map<std::string, topk::ExactTopK> oracle_cache_;
};

}  // namespace sparta::driver
