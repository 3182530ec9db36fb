// sparta_perfbench: the repository benchmark (see perfbench/README.md).
//
//   sparta_perfbench --workload <lat12|voice_open|live_ingest|cluster_hedge>
//                    --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// One invocation runs one workload. Inputs come from the seed, the system
// is driven through its public entry points only, every end-to-end metric
// except setup_s and peak_rss_mb is read off the simulator's virtual
// clock, and the outputs are checked. The last stdout line is the result
// object; a failed check exits 1 without printing it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "corpus/datasets.h"
#include "corpus/synthetic.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "exec/threaded_executor.h"
#include "index/builder.h"
#include "index/live_index.h"
#include "index/mmap_file.h"
#include "index/sharding.h"
#include "obs/critical_path.h"
#include "obs/trace_export.h"
#include "serve/coordinator.h"
#include "serve/live.h"
#include "serve/server.h"
#include "spans.h"
#include "topk/oracle.h"
#include "topk/recall.h"

namespace perfbench {
namespace {

using namespace sparta;
using exec::VirtualTime;
using exec::kMillisecond;

// ---------------------------------------------------------------- options

enum class Workload { kLat12, kVoiceOpen, kLiveIngest, kClusterHedge };

struct Args {
  Workload workload = Workload::kLat12;
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "sparta_perfbench: " << why
            << "\nusage: sparta_perfbench --workload "
               "<lat12|voice_open|live_ingest|cluster_hedge> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      have_workload = true;
      args.workload_name = value;
      if (value == "lat12") {
        args.workload = Workload::kLat12;
      } else if (value == "voice_open") {
        args.workload = Workload::kVoiceOpen;
      } else if (value == "live_ingest") {
        args.workload = Workload::kLiveIngest;
      } else if (value == "cluster_hedge") {
        args.workload = Workload::kClusterHedge;
      } else {
        Usage("unknown workload '" + value + "'");
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

/// splitmix64: independent sub-seeds for each seeded input.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------- workload shapes
//
// Every size and rate is a constant of the workload; sizes scale only
// with --seconds, never with host speed or the code under test.

struct Shape {
  std::size_t headline = 0;    ///< measured queries (closed) or arrivals
  double rate_qps = 0.0;       ///< headline open-loop rate (0 = closed)
  VirtualTime slo = 0;         ///< end-to-end SLO
  std::vector<double> ladder;  ///< absolute rates for max_qps_at_slo
  std::size_t rung = 0;        ///< arrivals per ladder rung
  std::size_t ingest_docs = 0;
  double ingest_rate_dps = 0.0;
};

constexpr int kSetupReps = 2;
constexpr std::size_t kRecallSample = 200;
constexpr std::size_t kExactSample = 12;
constexpr std::size_t kProbeSample = 12;
constexpr double kLadderTarget = 0.99;

Shape ShapeOf(Workload w, int seconds) {
  const double scale = seconds / 10.0;
  const auto n = [scale](double base) {
    return static_cast<std::size_t>(std::max(1.0, std::round(base * scale)));
  };
  Shape s;
  switch (w) {
    case Workload::kLat12:
      s.headline = n(1000);
      s.slo = 20 * kMillisecond;
      s.ladder = {600, 900, 1100, 1300, 1600};
      break;
    case Workload::kVoiceOpen:
      s.headline = n(2500);
      s.rate_qps = 1500;
      s.slo = 10 * kMillisecond;
      s.ladder = {2000, 3000, 4000, 5000, 6000, 8000};
      break;
    case Workload::kLiveIngest:
      s.headline = n(2000);
      s.rate_qps = 1500;
      s.slo = 10 * kMillisecond;
      s.ladder = {1000, 2000, 3000, 4000, 6000};
      s.ingest_docs = n(3500);
      s.ingest_rate_dps = 2500;
      break;
    case Workload::kClusterHedge:
      s.headline = n(1500);
      s.rate_qps = 1000;
      s.slo = 20 * kMillisecond;
      s.ladder = {500, 1000, 2000, 3000, 4000};
      break;
  }
  s.rung = n(240);
  return s;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

  std::string Json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out << ", ";
      out << "\"" << metrics_[i].name << "\": {\"value\": "
          << metrics_[i].value << ", \"unit\": \"" << metrics_[i].unit
          << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<Metric> metrics_;
};

/// Failed output checks; any entry fails the run.
std::vector<std::string> g_failures;

void Check(bool ok, const std::string& what) {
  if (!ok) g_failures.push_back(what);
}

double Ms(double ns) { return ns / 1e6; }

double PctMs(const util::Histogram& h, double q) {
  return h.empty() ? 0.0 : Ms(static_cast<double>(h.Percentile(q)));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------------------- setup

struct SetupTimes {
  double generate_s = 0.0;
  double finalize_s = 0.0;
  double queries_s = 0.0;
  double shard_s = 0.0;
  double Total() const { return generate_s + finalize_s + queries_s + shard_s; }
};

/// Everything a workload's measured phase consumes, built from the seed.
struct Inputs {
  std::unique_ptr<corpus::Dataset> dataset;
  std::vector<corpus::Query> queries;  ///< measured queries, in order
  std::vector<serve::IngestDoc> ingest;
  std::unique_ptr<index::InvertedIndex> live_main;
  std::unique_ptr<index::ShardedIndex> sharded;
};

std::vector<serve::IngestDoc> IngestStream(
    const corpus::SyntheticCorpusSpec& base, std::size_t count,
    std::uint64_t seed) {
  corpus::SyntheticCorpusSpec spec = base;
  spec.num_docs = static_cast<std::uint32_t>(count);
  spec.seed = seed;
  const index::RawIndexData raw = corpus::GenerateRawCorpus(spec);
  std::vector<serve::IngestDoc> docs(raw.num_docs);
  for (TermId t = 0; t < raw.term_postings.size(); ++t) {
    for (const index::RawPosting& p : raw.term_postings[t]) {
      docs[p.doc].terms.push_back({t, p.tf});
    }
  }
  for (std::uint32_t d = 0; d < raw.num_docs; ++d) {
    docs[d].doc_len = std::max<std::uint32_t>(1, raw.doc_lengths[d]);
  }
  return docs;
}

/// Builds the cw dataset in-process (never through GetDataset, whose
/// on-disk cache would make set-up time depend on earlier runs).
Inputs BuildInputs(const Args& args, const Shape& shape, SetupTimes& t,
                   Spans& spans) {
  Inputs in;
  corpus::DatasetSpec spec = corpus::ClueWebSimSpec();
  if (args.workload == Workload::kLat12) {
    // Distinct seeded 12-term queries drawn like cw's AOL-like log.
    spec.queries.seed = SubSeed(args.seed, 1);
    spec.queries.min_terms = 12;
    spec.queries.max_terms = 12;
    spec.queries.queries_per_length = static_cast<int>(shape.headline);
  }

  double t0 = HostSeconds();
  index::RawIndexData raw;
  {
    SpanScope span(spans, "corpus.generate");
    raw = corpus::GenerateRawCorpus(spec.base);
    if (shape.ingest_docs > 0) {
      in.ingest = IngestStream(spec.base, shape.ingest_docs,
                               SubSeed(args.seed, 4));
    }
  }
  double t1 = HostSeconds();
  t.generate_s = t1 - t0;
  index::InvertedIndex idx;
  {
    SpanScope span(spans, "index.finalize");
    if (args.workload == Workload::kLiveIngest) {
      // The live index owns its own main segment, built from the same
      // raw corpus.
      in.live_main = std::make_unique<index::InvertedIndex>(
          index::FinalizeIndex(index::RawIndexData(raw)));
    }
    idx = index::FinalizeIndex(std::move(raw));
  }
  t0 = HostSeconds();
  t.finalize_s = t0 - t1;
  {
    SpanScope span(spans, "corpus.queries");
    in.dataset = std::make_unique<corpus::Dataset>(spec, std::move(idx));
    if (args.workload == Workload::kLat12) {
      in.queries = in.dataset->queries().OfLength(12);
    } else {
      in.queries = in.dataset->queries().VoiceMix(
          static_cast<int>(shape.headline), SubSeed(args.seed, 2));
    }
  }
  t1 = HostSeconds();
  t.queries_s = t1 - t0;
  if (args.workload == Workload::kClusterHedge) {
    SpanScope span(spans, "index.shard");
    in.sharded = std::make_unique<index::ShardedIndex>(
        index::ShardIndex(in.dataset->index(), 4));
    t.shard_s = HostSeconds() - t1;
  }
  return in;
}

// ------------------------------------------------------ measured records

/// One offered query of the headline phase, as the user saw it.
struct Answer {
  std::size_t query = 0;  ///< index into Inputs::queries
  bool admitted = true;
  bool completed = false;
  bool complete = false;  ///< kComplete at full coverage
  VirtualTime e2e = 0;
  VirtualTime dispatch = 0;
  VirtualTime completion = 0;
  topk::ResultStatus status = topk::ResultStatus::kComplete;
  std::vector<topk::ResultEntry> entries;
  topk::QueryStats stats;
};

/// Per-layer numbers gathered in every run; printed only when traced.
struct Layers {
  double host_phase_s = 0.0;
  double page_cache_hit_frac = 0.0;
  // serve
  double queue_wait_p50_ms = 0.0, queue_wait_p99_ms = 0.0;
  double max_queue_depth = 0.0, shed = 0.0, rejected = 0.0, degraded = 0.0;
  double laddered = 0.0, slo_breaches = 0.0, anomalies = 0.0;
  // live index
  double refreshes = 0.0, merges_committed = 0.0, merge_busy_ms = 0.0;
  double epochs_reclaimed = 0.0, p99_in_merge_ms = 0.0;
  double p99_outside_merge_ms = 0.0;
  // cluster
  double rpcs_per_query = 0.0, timeouts = 0.0, retries = 0.0;
  double hedges_sent = 0.0, hedge_win_frac = 0.0, net_drops = 0.0;
  double cp_queue_ms = 0.0, cp_retry_hedge_ms = 0.0, cp_net_ms = 0.0;
  double cp_service_ms = 0.0, cp_merge_ms = 0.0;
};

struct Phase {
  std::vector<Answer> answers;
  std::size_t offered = 0;
  bool closed_loop = false;
  VirtualTime horizon = 0;  ///< open loop: last arrival or completion
  Layers layers;
};

struct RungResult {
  double rate = 0.0;
  std::size_t total = 0;    ///< arrivals offered in the rung
  std::size_t offered = 0;  ///< arrivals after the rung's warm-up
  std::size_t good = 0;  ///< complete, full coverage, within the SLO
  double Frac() const {
    return offered > 0 ? static_cast<double>(good) / offered : 0.0;
  }
};

// ---------------------------------------------- the serving entry points

serve::ServeConfig ServingStack(const Shape& shape, double rate,
                                std::size_t count, std::uint64_t seed) {
  serve::ServeConfig sc;
  sc.arrivals.kind = serve::ArrivalKind::kPoisson;
  sc.arrivals.seed = seed;
  sc.arrivals.rate_qps = rate;
  sc.arrivals.count = count;
  sc.slo = shape.slo;
  sc.admission.queue_capacity = 64;
  sc.admission.shed_predicted_wait = true;
  sc.admission.slo_headroom = 0.75;
  sc.ladder = serve::DegradationLadder::Default();
  sc.deadline_from_slo = true;
  sc.slo_monitor.enabled = true;
  sc.slo_monitor.bucket_ns = 50 * kMillisecond;
  sc.slo_monitor.window_buckets = 5;
  sc.slo_monitor.min_samples = 10;
  return sc;
}

/// The 12-worker serving machine with the always-on flight recorder.
sim::SimConfig MachineConfig(driver::BenchDriver& driver) {
  sim::SimConfig config = driver.MakeSimConfig(driver::kMachineWorkers);
  config.flight.enabled = true;
  return config;
}

Answer FromServed(const serve::ServedQuery& q, std::size_t num_queries) {
  Answer a;
  a.query = q.query_index % num_queries;
  a.admitted = q.outcome == topk::AdmissionOutcome::kAdmitted;
  a.completed = a.admitted && q.completion >= 0;
  if (a.completed) {
    a.e2e = q.EndToEnd();
    a.dispatch = q.dispatch;
    a.completion = q.completion;
    a.status = q.result.status;
    a.complete = q.result.status == topk::ResultStatus::kComplete &&
                 q.result.stats.shard_coverage >= 1.0;
    a.entries = q.result.entries;
    a.stats = q.result.stats;
  }
  return a;
}

std::vector<Answer> AnswersOf(const std::vector<serve::ServedQuery>& served,
                              std::size_t num_queries) {
  std::vector<Answer> answers;
  answers.reserve(served.size());
  for (const serve::ServedQuery& q : served) {
    answers.push_back(FromServed(q, num_queries));
  }
  return answers;
}

void CheckAccounting(const serve::ServeResult& r, const std::string& what) {
  Check(r.offered == r.completed + r.shed + r.rejected_full +
                         r.breaker_dropped,
        what + ": offered != completed + shed + rejected + breaker-dropped");
}

void CheckAccounting(const serve::ClusterServeResult& r,
                     const std::string& what) {
  Check(r.offered == r.completed + r.shed + r.rejected_full,
        what + ": offered != completed + shed + rejected");
}

void FillServeLayers(const serve::ServeResult& r, Layers& l) {
  l.queue_wait_p50_ms = PctMs(r.queue_wait_ns, 50);
  l.queue_wait_p99_ms = PctMs(r.queue_wait_ns, 99);
  l.max_queue_depth = static_cast<double>(r.max_queue_depth);
  l.shed = static_cast<double>(r.shed);
  l.rejected = static_cast<double>(r.rejected_full);
  l.degraded = static_cast<double>(r.degraded);
  std::size_t laddered = 0;
  for (std::size_t i = 1; i < r.rung_dispatches.size(); ++i) {
    laddered += r.rung_dispatches[i];
  }
  l.laddered = static_cast<double>(laddered);
  l.slo_breaches = static_cast<double>(r.slo_breaches);
  l.anomalies = static_cast<double>(r.anomalies);
}

/// Most queries admitted but not yet dispatched at any one time.
std::size_t MaxQueueDepth(const std::vector<serve::ServedQuery>& queries) {
  std::vector<std::pair<VirtualTime, int>> events;  // (time, +1 / -1)
  for (const serve::ServedQuery& q : queries) {
    if (q.dispatch < 0) continue;
    events.push_back({q.arrival, +1});
    events.push_back({q.dispatch, -1});
  }
  std::sort(events.begin(), events.end());  // leaves before arrivals
  long depth = 0, max_depth = 0;
  for (const auto& [t, step] : events) {
    depth += step;
    max_depth = std::max(max_depth, depth);
  }
  return static_cast<std::size_t>(max_depth);
}

std::size_t GoodCount(const std::vector<Answer>& answers, VirtualTime slo) {
  std::size_t good = 0;
  for (const Answer& a : answers) {
    if (a.complete && a.e2e <= slo) ++good;
  }
  return good;
}

/// The repository's exactness contract (tests/test_helpers.h): the
/// result is the exact top-k, ties at the k-th score interchangeable.
/// NRA-style algorithms such as Sparta report lower-bound scores, so
/// only full-score algorithms are held to the oracle's scores as well.
bool IsExactTopK(const topk::ExactTopK& exact,
                 const std::vector<topk::ResultEntry>& entries,
                 bool full_scores) {
  if (entries.size() != exact.topk.size()) return false;
  if (topk::Recall(exact, entries) < 1.0) return false;
  if (!full_scores) return true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].score != exact.topk[i].score) return false;
  }
  return true;
}

/// The workload under test: its inputs, machine and serving paths.
class Bench {
 public:
  Bench(const Args& args, const Shape& shape, Inputs& in, Spans& spans)
      : args_(args),
        shape_(shape),
        in_(in),
        spans_(spans),
        driver_(*in.dataset),
        algo_(algos::MakeAlgorithm(driver::HighRecallVariants()[0].algorithm)),
        params_(driver::HighRecallVariants()[0].params) {
    SPARTA_CHECK(algo_ != nullptr);
  }

  const index::InvertedIndex& cw() const { return in_.dataset->index(); }
  driver::BenchDriver& driver() { return driver_; }
  const topk::Algorithm& algo() const { return *algo_; }
  const topk::SearchParams& params() const { return params_; }

  /// The headline phase of the workload.
  Phase RunHeadline() {
    switch (args_.workload) {
      case Workload::kLat12:
        return Lat12();
      case Workload::kVoiceOpen:
        return VoiceOpen();
      case Workload::kLiveIngest:
        return LiveIngest();
      case Workload::kClusterHedge:
        return ClusterHedge();
    }
    return {};
  }

  /// One rung of the fixed-rate ladder through the workload's own
  /// serving entry point.
  RungResult Rung(double rate, std::uint64_t seed) {
    RungResult out;
    out.rate = rate;
    std::vector<Answer> answers;
    switch (args_.workload) {
      case Workload::kLat12:
      case Workload::kVoiceOpen: {
        sim::SimExecutor executor(MachineConfig(driver_));
        executor.page_cache().Reset();
        serve::Server server(cw(), *algo_,
                             ServingStack(shape_, rate, shape_.rung, seed));
        const serve::ServeResult r =
            server.ServeOnSim(executor, in_.queries, params_);
        CheckAccounting(r, "ladder rung");
        out.offered = r.offered;
        answers = AnswersOf(r.queries, in_.queries.size());
        break;
      }
      case Workload::kLiveIngest: {
        serve::LiveServeConfig config = LiveConfig(rate, shape_.rung, seed);
        sim::SimExecutor executor(MachineConfig(driver_));
        executor.page_cache().Reset();
        serve::LiveServer server(*live_, *algo_, config);
        const serve::LiveServeResult r =
            server.ServeOnSim(executor, in_.queries, in_.ingest, params_);
        CheckAccounting(r.serve, "ladder rung");
        out.offered = r.serve.offered;
        answers = AnswersOf(r.serve.queries, in_.queries.size());
        break;
      }
      case Workload::kClusterHedge: {
        serve::Cluster cluster(*in_.sharded,
                               ClusterSetup(rate, shape_.rung, seed, true));
        serve::Coordinator coord(cluster, *algo_);
        const serve::ClusterServeResult r = coord.Serve(in_.queries, params_);
        CheckAccounting(r, "ladder rung");
        out.offered = r.offered;
        answers = AnswersOf(r.queries, in_.queries.size());
        break;
      }
    }
    // The first third of a rung fills the queue and the page cache; the
    // share is taken over the rest.
    out.total = out.offered;
    const std::vector<Answer> settled(
        answers.begin() + static_cast<std::ptrdiff_t>(answers.size() / 3),
        answers.end());
    out.offered = settled.size();
    out.good = GoodCount(settled, shape_.slo);
    return out;
  }

  /// The index each answer should be judged against.
  const index::InvertedIndex& OracleIndex() const {
    return converged_ != nullptr ? *converged_ : cw();
  }

  /// cluster_hedge: a healthy cluster (no straggler) must merge to the
  /// unsharded exact top-k. BMW reports full document scores, so the
  /// merge must match the oracle score for score.
  void CheckHealthyMerge(std::span<const corpus::Query> sample) {
    const auto bmw = algos::MakeAlgorithm("BMW");
    topk::SearchParams params;
    params.k = params_.k;
    serve::Cluster cluster(*in_.sharded, ClusterSetup(1000, 1, 1, false));
    const auto results = serve::SearchOnCluster(cluster, *bmw, sample, params);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const auto oracle = topk::ComputeExactTopK(cw(), sample[i], params.k);
      Check(results[i].ok() && IsExactTopK(oracle, results[i].entries, true),
            "healthy cluster merge differs from the unsharded top-k for "
            "sample query " + std::to_string(i));
    }
  }

 private:
  Phase Lat12() {
    Phase phase;
    phase.closed_loop = true;
    sim::SimExecutor executor(
        driver_.MakeSimConfig(driver::WorkersFor(12)));
    executor.page_cache().Reset();
    const double t0 = HostSeconds();
    for (std::size_t i = 0; i < in_.queries.size(); ++i) {
      SpanScope span(spans_, "topk.Algorithm::Run", static_cast<std::int64_t>(i));
      auto ctx = executor.CreateQuery();
      topk::SearchResult r = algo_->Run(cw(), in_.queries[i], params_, *ctx);
      Answer a;
      a.query = i;
      a.completed = true;
      a.e2e = ctx->end_time() - ctx->start_time();
      a.status = r.status;
      a.complete = r.status == topk::ResultStatus::kComplete;
      a.entries = std::move(r.entries);
      a.stats = r.stats;
      phase.answers.push_back(std::move(a));
    }
    phase.layers.host_phase_s = HostSeconds() - t0;
    phase.offered = in_.queries.size();
    FillPageCache(executor, phase.layers);
    return phase;
  }

  Phase VoiceOpen() {
    Phase phase;
    sim::SimExecutor executor(MachineConfig(driver_));
    executor.page_cache().Reset();
    serve::Server server(
        cw(), *algo_,
        ServingStack(shape_, shape_.rate_qps, shape_.headline,
                     SubSeed(args_.seed, 3)));
    const double t0 = HostSeconds();
    serve::ServeResult r;
    {
      SpanScope span(spans_, "serve.Server::ServeOnSim");
      r = server.ServeOnSim(executor, in_.queries, params_);
    }
    phase.layers.host_phase_s = HostSeconds() - t0;
    CheckAccounting(r, "headline");
    phase.offered = r.offered;
    phase.horizon = r.horizon;
    phase.answers = AnswersOf(r.queries, in_.queries.size());
    FillServeLayers(r, phase.layers);
    FillPageCache(executor, phase.layers);
    return phase;
  }

  serve::LiveServeConfig LiveConfig(double rate, std::size_t count,
                                    std::uint64_t seed) const {
    serve::LiveServeConfig config;
    config.serve = ServingStack(shape_, rate, count, seed);
    // Documents arrive for as long as the queries do.
    const double span_s = static_cast<double>(count) / rate;
    config.ingest.arrivals.rate_qps = shape_.ingest_rate_dps;
    config.ingest.arrivals.count = std::min(
        in_.ingest.size(),
        static_cast<std::size_t>(span_s * shape_.ingest_rate_dps));
    config.ingest.arrivals.seed = SubSeed(seed, 7);
    config.ingest.refresh_every_docs = 64;
    config.ingest.merge_min_docs = 256;
    config.ingest.merge_chunk_postings = 4096;
    return config;
  }

  Phase LiveIngest() {
    Phase phase;
    live_ = std::make_unique<index::LiveIndex>(std::move(*in_.live_main));
    in_.live_main.reset();
    const serve::LiveServeConfig config =
        LiveConfig(shape_.rate_qps, shape_.headline, SubSeed(args_.seed, 3));
    sim::SimExecutor executor(MachineConfig(driver_));
    executor.page_cache().Reset();
    serve::LiveServer server(*live_, *algo_, config);
    const double t0 = HostSeconds();
    serve::LiveServeResult r;
    {
      SpanScope span(spans_, "serve.LiveServer::ServeOnSim");
      r = server.ServeOnSim(executor, in_.queries, in_.ingest, params_);
    }
    phase.layers.host_phase_s = HostSeconds() - t0;
    CheckAccounting(r.serve, "headline");
    Check(r.docs_ingested == config.ingest.arrivals.count,
          "live_ingest: not every offered document was ingested");
    phase.offered = r.serve.offered;
    phase.horizon = r.serve.horizon;
    util::Histogram in_merge, outside;
    for (const auto& q : r.serve.queries) {
      Answer a = FromServed(q, in_.queries.size());
      if (a.completed) {
        (r.OverlapsMerge(a.dispatch, a.completion) ? in_merge : outside)
            .Add(a.e2e);
      }
      phase.answers.push_back(std::move(a));
    }
    Layers& l = phase.layers;
    FillServeLayers(r.serve, l);
    FillPageCache(executor, l);
    l.refreshes = static_cast<double>(r.refreshes);
    l.merges_committed = static_cast<double>(r.merges_committed);
    l.epochs_reclaimed = static_cast<double>(r.epochs_reclaimed);
    for (const serve::MergeRecord& m : r.merges) {
      l.merge_busy_ms += Ms(static_cast<double>(m.end - m.begin));
    }
    l.p99_in_merge_ms = PctMs(in_merge, 99);
    l.p99_outside_merge_ms = PctMs(outside, 99);

    // The converged index every answer is judged against.
    {
      SpanScope span(spans_, "index.LiveIndex::CompactNow");
      const util::SerialGuard guard(live_->writer());
      live_->CompactNow();
    }
    converged_pin_ = std::make_unique<index::EpochManager::Pin>(
        live_->AcquireSnapshot());
    converged_ = (*converged_pin_)->main.get();
    Check((*converged_pin_)->delta == nullptr,
          "live_ingest: CompactNow left a delta segment");
    return phase;
  }

  serve::ClusterConfig ClusterSetup(double rate, std::size_t count,
                                    std::uint64_t seed, bool straggler) {
    serve::ClusterConfig cfg;
    cfg.num_shards = 4;
    cfg.num_nodes = 4;
    cfg.replication = 2;
    cfg.node_sim = driver_.MakeSimConfig(driver::kMachineWorkers);
    // Each node holds replication/num_shards of the index; keep cw's
    // page-cache-to-index ratio per node.
    cfg.node_sim.page_cache_bytes =
        cfg.node_sim.page_cache_bytes * cfg.replication / cfg.num_shards;
    if (straggler) {
      cfg.fabric.overrides.push_back(
          {sim::kCoordinatorNode, 0, {4 * kMillisecond, 1.25}});
      cfg.hedge_delay = 2 * kMillisecond;
    }
    cfg.arrivals.kind = serve::ArrivalKind::kPoisson;
    cfg.arrivals.rate_qps = rate;
    cfg.arrivals.count = count;
    cfg.arrivals.seed = seed;
    cfg.slo = shape_.slo;
    cfg.admission.queue_capacity = 64;
    cfg.admission.shed_predicted_wait = true;
    cfg.admission.slo_headroom = 0.75;
    // The observability plane is coordinator-side and charges no
    // virtual time; it is on in every run so traced and untraced runs
    // share one heap layout.
    cfg.trace.enabled = true;
    cfg.flight.enabled = true;
    cfg.slo_monitor.enabled = true;
    cfg.slo_monitor.bucket_ns = 50 * kMillisecond;
    cfg.slo_monitor.window_buckets = 5;
    cfg.slo_monitor.min_samples = 10;
    return cfg;
  }

  Phase ClusterHedge() {
    Phase phase;
    serve::Cluster cluster(
        *in_.sharded, ClusterSetup(shape_.rate_qps, shape_.headline,
                                   SubSeed(args_.seed, 3), true));
    serve::Coordinator coord(cluster, *algo_);
    const double t0 = HostSeconds();
    serve::ClusterServeResult r;
    {
      SpanScope span(spans_, "serve.Coordinator::Serve");
      r = coord.Serve(in_.queries, params_);
    }
    phase.layers.host_phase_s = HostSeconds() - t0;
    CheckAccounting(r, "headline");
    phase.offered = r.offered;
    phase.horizon = r.horizon;
    phase.answers = AnswersOf(r.queries, in_.queries.size());
    Layers& l = phase.layers;
    l.queue_wait_p50_ms = PctMs(r.queue_wait_ns, 50);
    l.queue_wait_p99_ms = PctMs(r.queue_wait_ns, 99);
    l.max_queue_depth = static_cast<double>(MaxQueueDepth(r.queries));
    l.shed = static_cast<double>(r.shed);
    l.rejected = static_cast<double>(r.rejected_full);
    l.degraded = static_cast<double>(r.degraded);
    l.slo_breaches = static_cast<double>(r.slo_breaches);
    l.anomalies = static_cast<double>(r.anomalies);
    const double completed = std::max<double>(1.0, r.completed);
    l.rpcs_per_query = static_cast<double>(r.rpcs_sent) / completed;
    l.timeouts = static_cast<double>(r.rpc_timeouts);
    l.retries = static_cast<double>(r.retries);
    l.hedges_sent = static_cast<double>(r.hedges_sent);
    l.hedge_win_frac =
        r.hedges_sent > 0
            ? static_cast<double>(r.hedges_won) / r.hedges_sent
            : 0.0;
    l.net_drops = static_cast<double>(r.net_drops);
    std::uint64_t hits = 0, misses = 0;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      hits += cluster.node(n).executor().page_cache().hits();
      misses += cluster.node(n).executor().page_cache().misses();
    }
    l.page_cache_hit_frac =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;

    // Critical paths: each completed query's latency splits into queue,
    // retry/hedge, network, service and merge, summing exactly.
    const std::vector<obs::CriticalPath> paths =
        driver::ComputeClusterCriticalPaths(*cluster.tracer(), r);
    double queue = 0, retry = 0, net = 0, service = 0, merge = 0;
    std::size_t found = 0;
    for (const obs::CriticalPath& p : paths) {
      if (!p.found) continue;
      const serve::ServedQuery& q = r.queries[p.record];
      Check(p.queue_wait + p.Total() == q.EndToEnd(),
            "critical path of query " + std::to_string(p.record) +
                " does not sum to its latency");
      ++found;
      queue += static_cast<double>(p.queue_wait);
      retry += static_cast<double>(p.retry_overhead);
      net += static_cast<double>(p.net_request + p.net_response);
      service += static_cast<double>(p.service);
      merge += static_cast<double>(p.merge);
    }
    Check(found == r.completed,
          "critical paths found for " + std::to_string(found) + " of " +
              std::to_string(r.completed) + " completed queries");
    const double n = std::max<double>(1.0, found);
    l.cp_queue_ms = Ms(queue / n);
    l.cp_retry_hedge_ms = Ms(retry / n);
    l.cp_net_ms = Ms(net / n);
    l.cp_service_ms = Ms(service / n);
    l.cp_merge_ms = Ms(merge / n);
    return phase;
  }

  static void FillPageCache(sim::SimExecutor& executor, Layers& l) {
    const double hits = static_cast<double>(executor.page_cache().hits());
    const double misses =
        static_cast<double>(executor.page_cache().misses());
    l.page_cache_hit_frac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }

  const Args& args_;
  const Shape& shape_;
  Inputs& in_;
  Spans& spans_;
  driver::BenchDriver driver_;
  std::unique_ptr<topk::Algorithm> algo_;
  topk::SearchParams params_;
  std::unique_ptr<index::LiveIndex> live_;
  std::unique_ptr<index::EpochManager::Pin> converged_pin_;
  const index::InvertedIndex* converged_ = nullptr;
};

/// max_qps_at_slo: where the share of offered queries answered complete
/// within the SLO crosses 99% on the fixed ladder, linearly interpolated
/// between the highest passing rung and the next one.
double MaxQpsAtSlo(const std::vector<RungResult>& rungs) {
  std::size_t pass = rungs.size();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].Frac() >= kLadderTarget) pass = i;
  }
  if (pass == rungs.size()) {
    // Even the lowest rung misses: scale it by the share it met.
    return rungs.front().rate * rungs.front().Frac() / kLadderTarget;
  }
  if (pass + 1 == rungs.size()) return rungs.back().rate;
  const RungResult& lo = rungs[pass];
  const RungResult& hi = rungs[pass + 1];
  const double drop = lo.Frac() - hi.Frac();
  const double t = drop > 0.0 ? (lo.Frac() - kLadderTarget) / drop : 0.0;
  return lo.rate + std::clamp(t, 0.0, 1.0) * (hi.rate - lo.rate);
}

// ------------------------------------------------------- traced probes

/// A query sample run alone, one after another, on one simulated
/// machine; returns per-query virtual latencies and the executor.
struct SampleRun {
  std::vector<VirtualTime> latency;
  std::vector<std::vector<topk::ResultEntry>> entries;
  double host_s = 0.0;
};

SampleRun RunSample(Bench& bench, std::span<const corpus::Query> sample,
                    const sim::SimConfig& config, bool algo_trace,
                    obs::Tracer** tracer_out = nullptr,
                    std::unique_ptr<sim::SimExecutor>* keep = nullptr) {
  auto executor = std::make_unique<sim::SimExecutor>(config);
  executor->page_cache().Reset();
  topk::SearchParams params = bench.params();
  params.trace.enabled = algo_trace;
  SampleRun out;
  const double t0 = HostSeconds();
  for (const corpus::Query& q : sample) {
    auto ctx = executor->CreateQuery();
    topk::SearchResult r = bench.algo().Run(bench.cw(), q, params, *ctx);
    out.latency.push_back(ctx->end_time() - ctx->start_time());
    out.entries.push_back(std::move(r.entries));
  }
  out.host_s = HostSeconds() - t0;
  if (tracer_out != nullptr) *tracer_out = executor->tracer();
  if (keep != nullptr) *keep = std::move(executor);
  return out;
}

double MeanMs(const std::vector<VirtualTime>& v) {
  double sum = 0.0;
  for (const VirtualTime t : v) sum += static_cast<double>(t);
  return v.empty() ? 0.0 : Ms(sum / v.size());
}

/// Real-thread replay of a 12-term sample: host ms per query, warm-up
/// excluded. Informational only (host threads are not steady here).
std::vector<double> ThreadReplay(Bench& bench,
                                 std::span<const corpus::Query> sample,
                                 int workers) {
  exec::ThreadedExecutor executor({.num_workers = workers, .trace = {}});
  std::vector<double> ms;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    auto ctx = executor.CreateQuery();
    (void)bench.algo().Run(bench.cw(), sample[i], bench.params(), *ctx);
    if (i >= 2) ms.push_back(Ms(static_cast<double>(ctx->end_time() -
                                                     ctx->start_time())));
  }
  return ms;
}

void TracedProbes(Bench& bench, const Args& args, const Inputs& in,
                  Metrics& out) {
  const auto& twelve = in.dataset->queries().OfLength(12);
  const std::span<const corpus::Query> sample{
      in.queries.data(), std::min(kProbeSample, in.queries.size())};
  const std::span<const corpus::Query> sample12{
      twelve.data(), std::min(kProbeSample, twelve.size())};

  // Where a query's virtual time goes, by span kind (self time), on the
  // workload's own queries: the program's tracer on one warm machine.
  {
    sim::SimConfig config = bench.driver().MakeSimConfig(
        args.workload == Workload::kLat12 ? driver::WorkersFor(12)
                                          : driver::kMachineWorkers);
    config.trace.enabled = true;
    obs::Tracer* tracer = nullptr;
    std::unique_ptr<sim::SimExecutor> keep;
    (void)RunSample(bench, sample, config, true, &tracer, &keep);
    double self[32] = {};
    for (const obs::AttributionRow& row : obs::ComputeAttribution(*tracer)) {
      self[static_cast<int>(row.kind)] += static_cast<double>(row.self);
    }
    double queue_wait = 0.0;
    for (const obs::TraceEvent& e : tracer->track(tracer->scheduler_track())) {
      if (!e.is_instant && e.span_kind() == obs::SpanKind::kQueueWait) {
        queue_wait += static_cast<double>(e.end - e.begin);
      }
    }
    const double n = static_cast<double>(sample.size());
    const auto per_query = [&](obs::SpanKind k) {
      return Ms(self[static_cast<int>(k)] / n);
    };
    out.Set("sim.scan_ms", per_query(obs::SpanKind::kPostingsScan), "ms");
    out.Set("sim.docmap_ms", per_query(obs::SpanKind::kDocMapAccess), "ms");
    out.Set("sim.heap_ms", per_query(obs::SpanKind::kHeapUpdate), "ms");
    out.Set("sim.lock_wait_ms", per_query(obs::SpanKind::kLockWait), "ms");
    out.Set("sim.io_ms", per_query(obs::SpanKind::kIoRead), "ms");
    out.Set("sim.queue_wait_ms", Ms(queue_wait / n), "ms");
  }

  // Contention profile of the same sample.
  {
    sim::SimConfig config = bench.driver().MakeSimConfig(
        args.workload == Workload::kLat12 ? driver::WorkersFor(12)
                                          : driver::kMachineWorkers);
    config.profile.contention = true;
    const driver::ProfileResult prof = bench.driver().ProfileLatency(
        bench.algo(), sample, bench.params(), config, false);
    double stripe_wait = 0.0;
    for (const auto& s : prof.contention.structures) {
      if (s.name == "docMap.stripe") {
        stripe_wait += static_cast<double>(s.lock_wait_ns);
      }
    }
    const double n = static_cast<double>(sample.size());
    out.Set("sim.lock_wait_ms.docmap_stripe", Ms(stripe_wait / n), "ms");
    out.Set("sim.coherence_misses_per_query",
            static_cast<double>(prof.contention.total_misses) / n, "count");
  }

  // Observer neutrality and cost, under the address-independent cost
  // model so the three passes differ only by what the observers charge.
  {
    sim::SimConfig config = bench.driver().MakeSimConfig(
        args.workload == Workload::kLat12 ? driver::WorkersFor(12)
                                          : driver::kMachineWorkers);
    config.costs.coherence_miss = config.costs.l1_hit;
    config.costs.remote_coherence_miss = config.costs.l1_hit;
    const SampleRun base = RunSample(bench, sample, config, false);
    sim::SimConfig traced_config = config;
    traced_config.trace.enabled = true;
    const SampleRun traced = RunSample(bench, sample, traced_config, true);
    Check(traced.latency == base.latency && traced.entries == base.entries,
          "tracing moved the virtual clock or the results");
    config.flight.enabled = true;
    const SampleRun flight = RunSample(bench, sample, config, false);
    Check(flight.entries == base.entries,
          "the flight recorder changed query results");
    out.Set("obs.recorder_overhead_pct",
            (MeanMs(flight.latency) / MeanMs(base.latency) - 1.0) * 100.0,
            "%");
    out.Set("obs.trace_host_overhead_pct",
            (traced.host_s / base.host_s - 1.0) * 100.0, "%");
  }

  // Real threads: spawn cost and a 12-term replay at 1 and 3 workers.
  {
    exec::ThreadedExecutor executor({.num_workers = 3, .trace = {}});
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const double t0 = HostSeconds();
      auto ctx = executor.CreateQuery();
      ctx->RunToCompletion();
      us.push_back((HostSeconds() - t0) * 1e6);
    }
    out.Set("exec.empty_query_us", Median(us), "us");
    const std::vector<double> w1 = ThreadReplay(bench, sample12, 1);
    const std::vector<double> w3 = ThreadReplay(bench, sample12, 3);
    out.Set("exec.threads_p50_ms.w1", Median(w1), "ms");
    out.Set("exec.threads_p50_ms.w3", Median(w3), "ms");
    const SampleRun des = RunSample(bench, sample12.subspan(2),
                                    bench.driver().MakeSimConfig(3), false);
    std::vector<double> des_ms;
    for (const VirtualTime t : des.latency) {
      des_ms.push_back(Ms(static_cast<double>(t)));
    }
    out.Set("exec.des_over_real", Median(des_ms) / Median(w3), "ratio");
    std::cerr << "[perfbench] exec w3 real ms min/median/max: "
              << *std::min_element(w3.begin(), w3.end()) << " / "
              << Median(w3) << " / "
              << *std::max_element(w3.begin(), w3.end()) << "\n";
  }
}

// ------------------------------------------------------------------ main

int Run(const Args& args) {
  Spans spans(args.trace);
  const Shape shape = ShapeOf(args.workload, args.seconds);

  // Set-up, several times; the last build is the one measured.
  std::vector<double> totals, generate, finalize, queries, shard;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};
    SetupTimes t;
    {
      SpanScope span(spans, "setup");
      in = BuildInputs(args, shape, t, spans);
    }
    totals.push_back(t.Total());
    generate.push_back(t.generate_s);
    finalize.push_back(t.finalize_s);
    queries.push_back(t.queries_s);
    shard.push_back(t.shard_s);
  }

  Bench bench(args, shape, in, spans);

  // Measured phase: the headline run.
  Phase phase;
  {
    SpanScope span(spans, "measure.headline");
    phase = bench.RunHeadline();
  }
  const double peak_rss_mb = PeakRssMb();

  // Checks and the oracle (outside set-up and the measured phase).
  const index::InvertedIndex& oracle_index = bench.OracleIndex();
  const int k = bench.params().k;
  std::vector<std::size_t> answered;
  std::size_t failed = 0;
  util::Histogram e2e;
  for (std::size_t i = 0; i < phase.answers.size(); ++i) {
    const Answer& a = phase.answers[i];
    if (a.admitted && !a.completed) ++failed;
    if (!a.completed) continue;
    if (a.status == topk::ResultStatus::kOom ||
        a.status == topk::ResultStatus::kPartialAfterFault) {
      ++failed;
    }
    answered.push_back(i);
    e2e.Add(a.e2e);
  }
  Check(!answered.empty(), "no query was answered");

  const double oracle_t0 = HostSeconds();
  double recall_sum = 0.0;
  std::size_t recall_n = 0;
  {
    SpanScope span(spans, "topk.ComputeExactTopK");
    // A seeded sample of answered queries (every one when few).
    util::Rng rng(SubSeed(args.seed, 5));
    std::vector<std::size_t> pick = answered;
    for (std::size_t i = pick.size(); i > 1; --i) {
      std::swap(pick[i - 1], pick[rng.Below(i)]);
    }
    pick.resize(std::min(pick.size(), kRecallSample));
    std::sort(pick.begin(), pick.end());
    for (const std::size_t i : pick) {
      const Answer& a = phase.answers[i];
      const auto exact =
          topk::ComputeExactTopK(oracle_index, in.queries[a.query], k);
      recall_sum += topk::Recall(exact, a.entries);
      ++recall_n;
    }
  }

  // Exact Sparta on a seeded sample must return the oracle's top-k.
  {
    SpanScope span(spans, "check.exact_sample");
    const driver::AlgoVariant exact_variant = driver::ExactVariants()[0];
    const auto exact_algo = algos::MakeAlgorithm(exact_variant.algorithm);
    std::vector<corpus::Query> sample;
    util::Rng rng(SubSeed(args.seed, 6));
    for (std::size_t i = 0; i < kExactSample; ++i) {
      sample.push_back(in.queries[rng.Below(in.queries.size())]);
    }
    sim::SimExecutor executor(
        bench.driver().MakeSimConfig(driver::kMachineWorkers));
    for (std::size_t i = 0; i < sample.size(); ++i) {
      auto ctx = executor.CreateQuery();
      const topk::SearchResult r =
          exact_algo->Run(oracle_index, sample[i], exact_variant.params, *ctx);
      const auto exact = topk::ComputeExactTopK(oracle_index, sample[i],
                                                exact_variant.params.k);
      Check(r.ok() && IsExactTopK(exact, r.entries, false),
            "exact Sparta differs from the oracle on sample query " +
                std::to_string(i));
    }
    if (args.workload == Workload::kClusterHedge) {
      bench.CheckHealthyMerge(sample);
    }
  }
  const double oracle_s = HostSeconds() - oracle_t0;

  // End-to-end metrics.
  const std::size_t complete = static_cast<std::size_t>(std::count_if(
      phase.answers.begin(), phase.answers.end(),
      [](const Answer& a) { return a.complete; }));
  const std::size_t good = GoodCount(phase.answers, shape.slo);
  double goodput_qps = 0.0;
  if (phase.closed_loop) {
    // One closed-loop client: answers within the SLO per second of the
    // loop's virtual busy time.
    double busy = 0.0;
    for (const Answer& a : phase.answers) busy += static_cast<double>(a.e2e);
    goodput_qps = busy > 0.0 ? good / (busy / 1e9) : 0.0;
  } else {
    goodput_qps = phase.horizon > 0
                      ? good / (static_cast<double>(phase.horizon) / 1e9)
                      : 0.0;
  }
  Metrics e2e_metrics;
  e2e_metrics.Set("p50_ms", PctMs(e2e, 50), "ms");
  e2e_metrics.Set("p99_ms", PctMs(e2e, 99), "ms");
  e2e_metrics.Set("goodput_qps", goodput_qps, "1/s");
  e2e_metrics.Set("recall", recall_n > 0 ? recall_sum / recall_n : 0.0,
                  "fraction");
  e2e_metrics.Set("ok_frac",
                  phase.offered > 0
                      ? static_cast<double>(complete) / phase.offered
                      : 0.0,
                  "fraction");
  e2e_metrics.Set("setup_s", Median(totals), "s");
  e2e_metrics.Set("peak_rss_mb", peak_rss_mb, "MB");

  // Virtual-clock results and counts, for the determinism self-check.
  {
    std::ostringstream v;
    v.precision(17);
    v << "{\"workload\": \"" << args.workload_name << "\", \"seed\": "
      << args.seed << ", \"answered\": " << answered.size()
      << ", \"offered\": " << phase.offered
      << ", \"complete\": " << complete << ", \"good\": " << good;
    for (const char* name :
         {"p50_ms", "p99_ms", "goodput_qps", "recall", "ok_frac"}) {
      for (const Metric& m : e2e_metrics.all()) {
        if (m.name == name) v << ", \"" << name << "\": " << m.value;
      }
    }
    v << "}";
    std::cerr << "[perfbench] virtual " << v.str() << "\n";
  }

  Metrics out;
  std::size_t ladder_offered = 0;
  if (!args.trace) {
    out = e2e_metrics;
  } else {
    const Layers& l = phase.layers;
    out.Set("corpus.generate_s", Median(generate), "s");
    out.Set("corpus.queries_s", Median(queries), "s");
    out.Set("index.finalize_s", Median(finalize), "s");
    out.Set("index.size_mb", static_cast<double>(bench.cw().SizeBytes()) / 1e6,
            "MB");
    out.Set("index.shard_s", Median(shard), "s");
    out.Set("index.refreshes", l.refreshes, "count");
    out.Set("index.merges_committed", l.merges_committed, "count");
    out.Set("index.merge_busy_ms", l.merge_busy_ms, "ms");
    out.Set("index.epochs_reclaimed", l.epochs_reclaimed, "count");
    out.Set("index.p99_in_merge_ms", l.p99_in_merge_ms, "ms");
    out.Set("index.p99_outside_merge_ms", l.p99_outside_merge_ms, "ms");
    double postings = 0, frac = 0, inserts = 0, peak = 0;
    for (const std::size_t i : answered) {
      const topk::QueryStats& s = phase.answers[i].stats;
      postings += static_cast<double>(s.postings_processed);
      frac += s.PostingsFraction();
      inserts += static_cast<double>(s.heap_inserts);
      peak = std::max(peak, static_cast<double>(s.docmap_peak_entries));
    }
    const double n = std::max<double>(1.0, answered.size());
    out.Set("core.postings_per_query", postings / n, "count");
    out.Set("core.postings_frac", frac / n, "fraction");
    out.Set("topk.heap_inserts_per_query", inserts / n, "count");
    out.Set("topk.docmap_peak_entries", peak, "count");
    out.Set("topk.oracle_s", oracle_s, "s");
    TracedProbes(bench, args, in, out);
    // The fixed-rate ladder through the workload's serving entry point.
    std::vector<RungResult> rungs;
    {
      SpanScope span(spans, "measure.ladder");
      for (std::size_t i = 0; i < shape.ladder.size(); ++i) {
        rungs.push_back(
            bench.Rung(shape.ladder[i], SubSeed(args.seed, 10 + i)));
        ladder_offered += rungs.back().total;
        std::cerr << "[perfbench] ladder rung " << rungs.back().rate
                  << " qps: " << rungs.back().good << " of "
                  << rungs.back().offered << " settled arrivals good\n";
      }
    }
    out.Set("max_qps_at_slo", MaxQpsAtSlo(rungs), "1/s");
    out.Set("sim.page_cache_hit_frac", l.page_cache_hit_frac, "fraction");
    out.Set("sim.host_ms_per_query", l.host_phase_s * 1e3 / n, "ms");
    out.Set("serve.queue_wait_p50_ms", l.queue_wait_p50_ms, "ms");
    out.Set("serve.queue_wait_p99_ms", l.queue_wait_p99_ms, "ms");
    out.Set("serve.max_queue_depth", l.max_queue_depth, "count");
    out.Set("serve.shed", l.shed, "count");
    out.Set("serve.rejected", l.rejected, "count");
    out.Set("serve.degraded", l.degraded, "count");
    out.Set("serve.laddered", l.laddered, "count");
    out.Set("serve.slo_breaches", l.slo_breaches, "count");
    out.Set("cluster.rpcs_per_query", l.rpcs_per_query, "count");
    out.Set("cluster.timeouts", l.timeouts, "count");
    out.Set("cluster.retries", l.retries, "count");
    out.Set("cluster.hedges_sent", l.hedges_sent, "count");
    out.Set("cluster.hedge_win_frac", l.hedge_win_frac, "fraction");
    out.Set("cluster.net_drops", l.net_drops, "count");
    out.Set("cluster.cp.queue_ms", l.cp_queue_ms, "ms");
    out.Set("cluster.cp.retry_hedge_ms", l.cp_retry_hedge_ms, "ms");
    out.Set("cluster.cp.net_ms", l.cp_net_ms, "ms");
    out.Set("cluster.cp.service_ms", l.cp_service_ms, "ms");
    out.Set("cluster.cp.merge_ms", l.cp_merge_ms, "ms");
    out.Set("obs.anomalies", l.anomalies, "count");

    // Host self time per span name, and the spans themselves.
    for (const auto& [name, st] : spans.SelfTimes()) {
      std::fprintf(stderr, "[perfbench] span %-28s n=%-6llu total %9.3f s  self %9.3f s\n",
                   name.c_str(), static_cast<unsigned long long>(st.count),
                   st.total_s, st.self_s);
    }
    if (spans.dropped() > 0) {
      std::cerr << "[perfbench] span buffer full: " << spans.dropped()
                << " spans not recorded\n";
    }
    if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
      std::cerr << "[perfbench] could not write " << args.spans_path << "\n";
    }
  }

  if (!g_failures.empty()) {
    for (const std::string& f : g_failures) {
      std::cerr << "[perfbench] CHECK FAILED: " << f << "\n";
    }
    return 1;
  }
  std::cout << "{\"correct\": true, \"attempted\": "
            << phase.offered + ladder_offered << ", \"failed\": " << failed
            << ", \"metrics\": " << out.Json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
