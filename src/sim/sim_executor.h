// Deterministic discrete-event executor: the simulated multi-core.
//
// Executes the same job-queue-structured algorithms as the threaded
// executor, but on *virtual* workers with per-worker virtual clocks.
// Jobs are dispatched FIFO (by readiness time) to the least-loaded
// worker; the job body runs natively and accrues virtual time through
// the WorkerContext cost hooks (CPU, cache/coherence, locks, SSD pages).
// A query's latency is the completion time of its last job — so parallel
// speedup, lock serialization, cache-line ping-pong and I/O stalls all
// emerge from the algorithms' real behavior, deterministically and
// independently of host hardware. This is the substrate on which every
// figure of the paper is regenerated (see DESIGN.md §1).
//
// Fidelity note: workers interleave at *job* granularity (a job runs to
// completion natively while its virtual interval may overlap others').
// Jobs are posting-list segments of ~1K postings, i.e. tens of
// microseconds of virtual time, so shared-state staleness stays in the
// same order as on real hardware.
//
// Determinism note: result sets and work counts are bit-reproducible.
// Virtual latencies carry allocator-layout jitter: the coherence model
// keys cache lines by real addresses, and heap-allocation alignment
// decides which lines small shared variables straddle. Latency mode
// (CreateQuery) resets the lines per query; throughput mode
// (CreateQueryAt) never does, so a query can alias the lines an earlier,
// finished query left at recycled heap addresses, and any change to
// allocation lifetimes shifts virtual latencies within this jitter.
// Freeing drained queries in the serving loops, for example, moved p50
// by at most 0.3%, p99 by at most 0.7% and goodput by at most 0.001% on
// the perfbench voice_open (seeds 1-10) and live_ingest (seeds 1, 7)
// workloads, and left recall and ok_frac unchanged. In MeasureThroughput
// it moved Table 4's qps by at most 0.2% and recall by at most 0.07
// points, because approximate variants stop on the jittered clock.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "exec/context.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/coherence.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/page_cache.h"

namespace sparta::sim {

class RaceDetector;

struct SimConfig {
  int num_workers = 12;
  CostModel costs;
  /// Page-cache capacity in bytes; 0 = unbounded (index fits in RAM).
  std::uint64_t page_cache_bytes = 0;
  /// Modeled per-query memory budget; exceeding it makes ChargeMemory
  /// return false (the "crashed due to lack of memory" cells).
  std::int64_t memory_budget_bytes =
      std::numeric_limits<std::int64_t>::max();
  /// Runs the deterministic race detector alongside the cost model (see
  /// sim/race_detector.h). Detection hooks charge no virtual time;
  /// result sets and reports are unaffected, and latencies agree with
  /// detector-off runs up to the heap-layout jitter noted above (the
  /// detector's shadow allocations shift coherence-line addresses). Like
  /// the coherence lines, the shadow state is keyed by address and is
  /// never reset in throughput mode, so it must not see an address
  /// recycled within a run: with the detector on, the serving loops keep
  /// drained queries' state until the run ends (serve/flight.h).
  bool race_check = false;
  /// Seeded deterministic fault plan (see sim/fault_injector.h). The
  /// default plan is inert: no injector is constructed and every fault
  /// hook reduces to a null check, so fault-free runs stay bit-identical
  /// to builds without the fault layer.
  FaultConfig faults;
  /// Query-lifecycle tracing (see obs/trace.h). Off by default: no
  /// tracer is constructed and every emission site reduces to a null
  /// check, so untraced runs stay bit-identical to builds without the
  /// observability layer. Trace hooks never charge virtual time, so
  /// traced runs produce the same results and latencies; event payloads
  /// avoid addresses, so with an address-independent cost model
  /// (costs.coherence_miss == costs.l1_hit) the exported trace is
  /// byte-identical across runs of the same seed.
  obs::TraceConfig trace;
  /// Contention + virtual-time sampling profiler (see obs/profiler.h).
  /// Off by default: no profiler is constructed and every hook reduces
  /// to a null check, so unprofiled runs stay bit-identical to builds
  /// without the profiling layer. Profiler hooks never charge virtual
  /// time; with profiling on, coherence lines of registered ranges are
  /// keyed structure-relative instead of by heap address, so the same
  /// seed yields byte-identical contention reports and folded stacks
  /// (and latencies lose the allocator-layout jitter noted above,
  /// at the price of differing from profiler-off runs unless the cost
  /// model is address-independent: costs.coherence_miss == costs.l1_hit).
  obs::ProfilerConfig profile;
  /// Always-on flight recorder (see obs/flight_recorder.h). Off by
  /// default: no recorder is constructed and every emission site
  /// reduces to a null check, so recorder-off runs stay bit-identical
  /// to builds without it. Unlike the tracer, the recorder models its
  /// own cost: each machine-context event charges
  /// `flight.record_cost_ns` of virtual time, so recorder-on runs are
  /// deterministically slower by exactly the recording overhead (the
  /// bench_obs_overhead gate keeps that under 5%).
  obs::FlightRecorderConfig flight;
};

class SimExecutor {
 public:
  explicit SimExecutor(SimConfig config);
  ~SimExecutor();

  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  /// Creates a query that owns the machine from "now": all worker clocks
  /// are synchronized to a common barrier time, which becomes the
  /// query's start (latency mode). Also resets coherence tracking.
  std::unique_ptr<exec::QueryContext> CreateQuery();

  /// Creates a query admitted at time `start` while the machine keeps
  /// running (throughput mode; no barrier, no coherence reset).
  std::unique_ptr<exec::QueryContext> CreateQueryAt(exec::VirtualTime start);

  /// Runs submitted jobs until none remain. `admit`, when provided, is
  /// invoked whenever queued jobs < num_workers (i.e. some workers are
  /// idle — the paper's FCFS scheduling rule, §5.1) with the current
  /// idle time; it may submit more work and returns false once there is
  /// nothing left to admit.
  void Drain(const std::function<bool(exec::VirtualTime)>& admit = nullptr);

  /// Max over worker clocks.
  exec::VirtualTime GlobalTime() const;
  /// Min over worker clocks (when the next worker would go idle).
  exec::VirtualTime IdleTime() const;

  /// Synchronizes all worker clocks to GlobalTime() and returns it.
  exec::VirtualTime SyncBarrier();

  /// Raises every worker clock to at least `t`. Used when a simulated
  /// node rejoins the cluster: its machine was dark between crash and
  /// restart, so all of its workers resume no earlier than the restart
  /// instant. No-op for clocks already past `t`.
  void AdvanceTo(exec::VirtualTime t);

  PageCache& page_cache() { return page_cache_; }
  CoherenceModel& coherence() { return coherence_; }
  const SimConfig& config() const { return config_; }

  /// Non-null iff `SimConfig::race_check` is set.
  RaceDetector* race_detector() const { return race_detector_.get(); }

  /// Non-null iff `SimConfig::faults.enabled()`. Exposes the fault log
  /// for determinism tests and the degradation benchmark.
  FaultInjector* fault_injector() const { return fault_injector_.get(); }

  /// Non-null iff `SimConfig::trace.enabled`. Tracks 0..W-1 are the
  /// workers, W the scheduler (queue waits), W+1 the serving layer.
  obs::Tracer* tracer() const { return tracer_.get(); }

  /// Non-null iff `SimConfig::profile.enabled()`.
  obs::Profiler* profiler() const { return profiler_.get(); }

  /// Non-null iff `SimConfig::flight.enabled`. Same track layout as the
  /// tracer: 0..W-1 workers, W scheduler, W+1 serving.
  obs::FlightRecorder* flight_recorder() const {
    return flight_recorder_.get();
  }

 private:
  friend class SimQuery;
  friend class SimWorkerContext;
  friend class SimLock;

  struct SimQueryState;
  struct Job {
    exec::JobFn fn;
    exec::VirtualTime ready = 0;
    std::uint64_t seq = 0;
    /// Race-detector fork token (0 = external submission, no fork edge).
    std::uint64_t fork = 0;
    std::shared_ptr<SimQueryState> query;
  };
  struct JobLater {
    bool operator()(const Job& a, const Job& b) const {
      if (a.ready != b.ready) return a.ready > b.ready;
      return a.seq > b.seq;
    }
  };

  void SubmitJob(std::shared_ptr<SimQueryState> query, exec::JobFn fn);
  int PickWorker() const;

  SimConfig config_;
  std::vector<exec::VirtualTime> clocks_;
  std::priority_queue<Job, std::vector<Job>, JobLater> jobs_;
  std::uint64_t next_seq_ = 0;
  CoherenceModel coherence_;
  PageCache page_cache_;
  std::unique_ptr<RaceDetector> race_detector_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  /// Deterministic ids stamped into trace events in place of addresses.
  std::uint64_t next_query_id_ = 0;
  std::uint64_t next_lock_id_ = 0;

  /// Worker currently executing a job (-1 outside Drain); used to stamp
  /// readiness of jobs submitted from inside jobs.
  int current_worker_ = -1;
};

}  // namespace sparta::sim
