// One admitted query's execution state on the simulator, owned by a
// serving loop only while the query is in flight.
//
// Both sim serving loops (Server::ServeOnSim, LiveServer::ServeOnSim)
// and BenchDriver::MeasureThroughput keep their dispatched queries in a
// Flights set and harvest it with HarvestDrained, which hands each
// drained flight to the caller's completion bookkeeping and then frees
// its snapshot pin, run and context. Serving memory is therefore
// O(queries in flight), not O(arrivals) (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "exec/context.h"
#include "index/epoch.h"
#include "sim/sim_executor.h"
#include "topk/algorithm.h"

namespace sparta::serve {

struct Flight {
  std::size_t record = 0;  ///< the caller's index for the query
  /// The snapshot the query searches (live serving only; empty when the
  /// index is frozen).
  index::EpochManager::Pin pin;
  std::unique_ptr<exec::QueryContext> ctx;
  /// Runs on `ctx`: declared last, so it is destroyed first.
  std::unique_ptr<topk::QueryRun> run;
};

/// The dispatched, not yet harvested queries of one run on `executor`.
class Flights {
 public:
  /// With the race detector on, drained flights are kept until the set
  /// is destroyed: in throughput mode its shadow state is keyed by heap
  /// address and never reset, so a later query reusing a finished
  /// query's memory would be reported as racing with it.
  explicit Flights(const sim::SimExecutor& executor)
      : retain_(executor.race_detector() != nullptr) {}

  void Add(Flight flight) { active_.push_back(std::move(flight)); }
  std::size_t size() const { return active_.size(); }
  bool empty() const { return active_.empty(); }

  /// Removes every drained flight (a started query with zero
  /// outstanding jobs is finished: jobs only beget jobs while running),
  /// calls `on_done(flight)` on each in (end time, record) order so the
  /// caller's estimators see real departure spacing, and then releases
  /// the flight's pin, run and context.
  template <typename OnDone>
  void HarvestDrained(OnDone&& on_done) {
    std::vector<Flight> done;
    for (std::size_t i = 0; i < active_.size();) {
      if (active_[i].ctx->outstanding_jobs() == 0) {
        done.push_back(std::move(active_[i]));
        active_[i] = std::move(active_.back());
        active_.pop_back();
      } else {
        ++i;
      }
    }
    std::sort(done.begin(), done.end(),
              [](const Flight& a, const Flight& b) {
                const auto ta = a.ctx->end_time();
                const auto tb = b.ctx->end_time();
                return ta != tb ? ta < tb : a.record < b.record;
              });
    for (Flight& f : done) {
      on_done(f);
      f.pin.Release();
      if (retain_) {
        retired_.push_back(std::move(f));
      } else {
        f.run.reset();
        f.ctx.reset();
      }
    }
  }

 private:
  bool retain_;
  std::vector<Flight> active_;
  std::vector<Flight> retired_;  ///< race-check runs only
};

}  // namespace sparta::serve
