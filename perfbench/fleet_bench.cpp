// Fleet-admission benchmark harness: sets up the GAugur stack, generates
// one workload's arrival trace from a seed, and drives it through
// sched::SimulateShardedFleet, printing one JSON object of raw
// measurements as the last line of stdout. perfbench/run.py builds this
// binary, runs it, checks its outputs, and turns the raw numbers into the
// benchmark's metrics.
//
//   fleet_bench --workload admit-steady --seed 1 --seconds 6 --trace 0
//               --scratch .bench_build/tmp
//
// Workloads (perfbench/METHOD.md says why each exists):
//   admit-steady    10 study games, 1080p, Poisson 20/min, 24 sim-hours,
//                   replicated provenance policy, obs off.
//   admit-cold      the same over all 100 catalog games (cache misses),
//                   4 sim-hours.
//   admit-observed  admit-steady's shape, 3 sim-hours, with obs on, the
//                   default health rules, a small event log and a
//                   TelemetrySink streaming to --scratch.
//   fleet-scale     a ramp of ~1.05M one-game sessions, all live at the
//                   end, first-open packing, no predictor.
//
// --trace 0 times the untouched program. --trace 1 additionally records
// spans from this file around every call into a module: the setup calls
// (catalog, profiling, corpus, training), trace generation, the fleet run,
// the sink's final drain, and each shard's placement policy (the
// predictor's scoring entry point), and alternates untraced and traced
// fleet runs so the tracing overhead is measured too. Nothing in src/ is
// changed or instrumented for the benchmark.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/rng.h"
#include "common/stats.h"
#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/corpus.h"
#include "gaugur/features.h"
#include "gaugur/lab.h"
#include "gaugur/predictor.h"
#include "ml/tree_kernel.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/model_monitor.h"
#include "obs/sink.h"
#include "obs/switch.h"
#include "obs/timeseries.h"
#include "profiling/profiler.h"
#include "sched/dynamic.h"
#include "sched/study.h"

using namespace gaugur;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds (user + system) used so far by every thread of this
/// process, exited threads included.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of this process in MB (VmHWM), 0 if unknown.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Starts a new peak for PeakRssMb() at the current resident set. Where
/// the kernel does not allow it, the peak stays the process's peak so far.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

constexpr double kQosFps = 60.0;
// Half of the 4-core reference host: at 4 shards the decision tail
// measures the OS scheduler, not the program (see perfbench/METHOD.md).
constexpr std::size_t kShards = 2;
// The warm-up run replays a trace of another seed (seed ^ this): the
// cache and the allocator are warm, but the measured trace still asks
// for colocations the cache has not seen.
constexpr std::uint64_t kWarmupSeedMix = 0x9e3779b97f4a7c15ull;

// admit-observed's event log: 8 rings of 128 events. With the default
// 8 x 4096 a run's ~14k events all fit, so the sink writer's backlog (and
// with it the peak RSS) grows by however far the host lets the writer
// fall behind the shards: 1-3.5k events, 60-95 MB, from run to run. Small
// rings bound the backlog; the sink's default lossless backpressure
// makes the shards wait for the writer instead.
constexpr obs::EventLogConfig kObservedEventLog{.shard_capacity = 128,
                                                .num_shards = 8};

struct Workload {
  std::string name;
  bool trained = true;    // setup trains the predictor
  bool observed = false;  // obs on, health rules, streaming sink
  bool all_games = false;  // arrivals over the whole catalog
  double horizon_min = 1440.0;
  std::size_t ramp_sessions = 0;  // fleet-scale: one-game ramp size
  // setup_s is the median of this many set-ups. Training takes ~9 s, so
  // trained workloads set up twice to fit the run budget.
  int setup_repeats = 2;
};

Workload WorkloadByName(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "admit-steady") return w;
  if (name == "admit-cold") {
    w.all_games = true;
    // Four sim-hours (~4.8k arrivals, ~2.5 s a run) instead of 24: the
    // hit rate is already at its cold level, and runs fit their budget.
    w.horizon_min = 240.0;
    return w;
  }
  if (name == "admit-observed") {
    w.observed = true;
    // The write side streams ~9 MB of segments per sim-hour; three hours
    // keep a run inside its time budget and the segments small.
    w.horizon_min = 180.0;
    return w;
  }
  if (name == "fleet-scale") {
    w.trained = false;
    w.ramp_sessions = 1'050'000;
    // Its set-up takes ~20 us; many repeats steady the median.
    w.setup_repeats = 1001;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  return args;
}

// ---------------------------------------------------------------------------
// Spans recorded by the harness (kept in memory, printed at exit).

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  template <typename Fn>
  decltype(auto) Time(const char* name, Fn&& fn) {
    if (!on_) return fn();
    struct Guard {
      SpanLog* log;
      const char* name;
      double start;
      ~Guard() { log->spans_.push_back({name, start, log->Now()}); }
    } guard{this, name, Now()};
    return fn();
  }

  double Now() const { return SecondsSince(origin_); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Setup: catalog, lab, profiles, corpus, trained predictor.

struct Stack {
  std::unique_ptr<gamesim::GameCatalog> catalog;
  std::unique_ptr<gamesim::ServerSim> server;
  std::unique_ptr<core::ColocationLab> lab;
  std::unique_ptr<core::FeatureBuilder> features;
  std::unique_ptr<core::GAugurPredictor> predictor;
  std::size_t train_rows = 0;
};

std::unique_ptr<Stack> BuildStack(const Workload& workload, SpanLog& spans) {
  auto stack = std::make_unique<Stack>();
  spans.Time("gamesim.catalog", [&] {
    stack->catalog = std::make_unique<gamesim::GameCatalog>(
        gamesim::GameCatalog::MakeDefault(/*seed=*/42));
    stack->server = std::make_unique<gamesim::ServerSim>();
    stack->lab =
        std::make_unique<core::ColocationLab>(*stack->catalog, *stack->server);
  });
  if (!workload.trained) return stack;

  // quickstart's pipeline, with the scheduling CM threshold.
  auto profiles = spans.Time("profiling.profile", [&] {
    return profiling::Profiler(*stack->server).ProfileCatalog(*stack->catalog);
  });
  stack->features = std::make_unique<core::FeatureBuilder>(std::move(profiles));
  core::CorpusOptions corpus_options;
  corpus_options.num_pairs = 200;
  corpus_options.num_triples = 50;
  corpus_options.num_quads = 50;
  const auto corpus = spans.Time("gaugur.corpus", [&] {
    return core::GenerateCorpus(*stack->lab, corpus_options);
  });
  core::PredictorConfig config;
  config.cm_decision_threshold = 0.8;
  stack->predictor =
      std::make_unique<core::GAugurPredictor>(*stack->features, config);
  const std::vector<double> qos_grid = {50.0, 60.0};
  spans.Time("ml.train_rm", [&] { stack->predictor->TrainRm(corpus); });
  spans.Time("ml.train_cm",
             [&] { stack->predictor->TrainCm(corpus, qos_grid); });
  std::size_t rm_rows = 0;
  for (const auto& measured : corpus) rm_rows += measured.sessions.size();
  stack->train_rows = rm_rows * (1 + qos_grid.size());
  return stack;
}

/// Sets up `workload` setup_repeats times (once when traced, inside
/// spans) and keeps the last stack in `stack`. Returns every set-up time;
/// run.py takes their median.
obs::JsonArray TimeSetUps(const Workload& workload, bool traced,
                          SpanLog& spans, std::unique_ptr<Stack>& stack) {
  const int repeats = traced ? 1 : workload.setup_repeats;
  obs::JsonArray times;
  for (int r = 0; r < repeats; ++r) {
    stack.reset();
    const auto start = Clock::now();
    stack = BuildStack(workload, spans);
    times.emplace_back(SecondsSince(start));
  }
  return times;
}

// ---------------------------------------------------------------------------
// Inputs: every workload's trace is a pure function of the seed.

std::vector<sched::DynamicRequest> MakeTrace(const Workload& workload,
                                             const Stack& stack,
                                             std::uint64_t seed,
                                             SpanLog& spans) {
  if (workload.ramp_sessions > 0) {
    // Every session arrives inside a 100-minute ramp (seeded jitter
    // within its slot) and lasts past its end, so peak concurrency is
    // exactly ramp_sessions.
    constexpr double kRampMin = 100.0;
    const double slot =
        kRampMin / static_cast<double>(workload.ramp_sessions);
    common::Rng rng(seed);
    std::vector<sched::DynamicRequest> trace(workload.ramp_sessions);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      trace[i].arrival_min = (static_cast<double>(i) + rng.Uniform()) * slot;
      trace[i].duration_min = (kRampMin + 5.0) - trace[i].arrival_min;
      trace[i].session = {0, resources::k1080p};
    }
    return trace;
  }
  return spans.Time("sched.trace", [&] {
    std::vector<int> games;
    if (workload.all_games) {
      for (std::size_t g = 0; g < stack.catalog->size(); ++g) {
        games.push_back(static_cast<int>(g));
      }
    } else {
      games = sched::SelectStudyGames(*stack.lab, 10, kQosFps, /*seed=*/5,
                                      resources::k1080p)
                  .game_ids;
    }
    return sched::GenerateDynamicTrace(games, workload.horizon_min,
                                       /*arrivals_per_min=*/20.0,
                                       /*mean_duration_min=*/30.0, seed,
                                       resources::k1080p);
  });
}

// ---------------------------------------------------------------------------
// One fleet run.

/// Per-shard record of the placement-policy calls (traced runs only).
/// Each shard's worker writes only its own recorder.
struct PolicyRecorder {
  std::vector<double> call_us;
  double busy_s = 0.0;
  std::uint64_t candidates = 0;
};

std::uint64_t PlacementDigest(std::span<const long long> placements) {
  std::uint64_t h = 1469598103934665603ull;
  for (const long long p : placements) {
    auto v = static_cast<std::uint64_t>(p);
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// One fleet run. `spans` records the module calls; pass a log that is
/// off for an untraced run.
obs::JsonObject RunFleet(const Workload& workload, const Stack& stack,
                         std::span<const sched::DynamicRequest> trace,
                         std::uint64_t seed, bool traced, SpanLog& spans,
                         const std::string& sink_dir) {
  const core::GAugurPredictor* predictor = stack.predictor.get();
  sched::ShardedFleetOptions options;
  options.num_shards = kShards;
  options.tick_window_min = 5.0;
  options.seed = seed;
  options.dynamic.qos_fps = kQosFps;
  options.dynamic.max_policy_candidates = 64;

  // The prediction cache lives in the trained predictor and so carries
  // over from one fleet run to the next, as in a long-running service;
  // the discarded warm-up run fills it. Only the predictor's policy is
  // timed: fleet-scale's packing lambda belongs to this harness.
  sched::ShardPolicyFactory factory;
  core::PredictionCache::Stats cache_before;
  if (predictor != nullptr) {
    cache_before = predictor->PredictionCacheStats();
    factory = sched::MakeReplicatedProvenanceFactory(*predictor, kQosFps);
  } else {
    factory = [](std::size_t) -> sched::PlacementPolicy {
      return [](std::span<const core::Colocation> open_servers,
                const core::SessionRequest&) {
        return open_servers.empty() ? -1 : 0;
      };
    };
  }
  std::vector<PolicyRecorder> recorders(kShards);
  sched::ShardPolicyFactory run_factory = factory;
  const bool time_policy = traced && predictor != nullptr;
  if (time_policy) {
    for (auto& r : recorders) r.call_us.reserve(trace.size() / kShards + 1);
    run_factory = [&factory, &recorders](std::size_t shard) {
      PolicyRecorder* recorder = &recorders[shard];
      return [inner = factory(shard), recorder](
                 std::span<const core::Colocation> open_servers,
                 const core::SessionRequest& arrival) {
        const auto start = Clock::now();
        const int choice = inner(open_servers, arrival);
        const double s = SecondsSince(start);
        recorder->busy_s += s;
        recorder->call_us.push_back(s * 1e6);
        recorder->candidates += open_servers.size();
        return choice;
      };
    };
  }

  // Observed runs: fresh process-wide telemetry state per run, so every
  // run starts where the first one did (a monitor ring left full by the
  // previous run changes decision latency) and the sink's tallies and the
  // event log's describe this run alone. The model monitor keeps the
  // drift references training installed.
  std::unique_ptr<obs::TelemetrySink> sink;
  if (workload.observed) {
    auto& monitor = obs::ModelMonitor::Global();
    const auto rm_reference = monitor.Reference(obs::ModelKind::kRm);
    const auto cm_reference = monitor.Reference(obs::ModelKind::kCm);
    monitor.Reset();
    monitor.SetReference(obs::ModelKind::kRm, rm_reference);
    monitor.SetReference(obs::ModelKind::kCm, cm_reference);
    obs::Registry::Global().Reset();
    obs::EventLog::Global().Clear();
    obs::FleetTimeSeries::Global().Clear();
    obs::LatencyProfiler::Global().Reset();
    obs::HealthEngine::Global().Reset();
    obs::HealthEngine::Global().InstallDefaultRules(kQosFps);
    obs::SinkConfig config;
    config.directory = sink_dir;
    sink = std::make_unique<obs::TelemetrySink>(config);
  }

  const double cpu_start = ProcessCpuSeconds();
  const auto start = Clock::now();
  const sched::ShardedFleetResult result = spans.Time("sched.fleet", [&] {
    return sched::SimulateShardedFleet(*stack.lab, trace, run_factory,
                                       options);
  });
  const double fleet_s = SecondsSince(start);
  const double fleet_cpu_s = ProcessCpuSeconds() - cpu_start;

  obs::JsonObject run;
  run["traced"] = traced;
  run["fleet_s"] = fleet_s;
  run["fleet_cpu_s"] = fleet_cpu_s;
  run["decisions"] = static_cast<unsigned long long>(trace.size());
  run["decision_p50_us"] = result.decision_latency_p50_us;
  run["decision_p99_us"] = result.decision_latency_p99_us;
  run["server_minutes"] = result.total.server_minutes;
  run["sessions"] = static_cast<unsigned long long>(result.total.sessions);
  run["violated_sessions"] =
      static_cast<unsigned long long>(result.total.violated_sessions);
  run["powerons"] = static_cast<unsigned long long>(result.total.powerons);
  run["peak_servers"] =
      static_cast<unsigned long long>(result.total.peak_servers);
  run["peak_concurrent_sessions"] =
      static_cast<unsigned long long>(result.peak_concurrent_sessions);
  run["ticks"] = static_cast<unsigned long long>(result.ticks);
  const auto& placements = result.total.placements;
  run["unplaced"] = static_cast<unsigned long long>(
      placements.size() < trace.size()
          ? trace.size()
          : std::count(placements.begin(), placements.end(), -1LL));
  // Hex string: a 64-bit digest does not survive a JSON double.
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(PlacementDigest(placements)));
  run["placement_digest"] = std::string(digest);

  if (predictor != nullptr) {
    const auto stats = predictor->PredictionCacheStats();
    run["cache_hits"] =
        static_cast<unsigned long long>(stats.hits - cache_before.hits);
    run["cache_misses"] =
        static_cast<unsigned long long>(stats.misses - cache_before.misses);
    run["cache_evictions"] = static_cast<unsigned long long>(
        stats.evictions - cache_before.evictions);
  }
  if (time_policy) {
    std::vector<double> calls;
    obs::JsonArray shard_busy;
    std::uint64_t candidates = 0;
    double busy_s = 0.0;
    for (const auto& r : recorders) {
      calls.insert(calls.end(), r.call_us.begin(), r.call_us.end());
      shard_busy.emplace_back(r.busy_s);
      candidates += r.candidates;
      busy_s += r.busy_s;
    }
    run["score_calls"] = static_cast<unsigned long long>(calls.size());
    run["score_busy_s"] = busy_s;
    run["score_candidates"] = static_cast<unsigned long long>(candidates);
    run["score_p50_us"] = common::Percentile(calls, 0.50);
    run["score_p99_us"] = common::Percentile(calls, 0.99);
    run["shard_busy_s"] = std::move(shard_busy);
  }
  if (sink) {
    const auto stop_start = Clock::now();
    spans.Time("obs.sink.stop", [&] { sink->Stop(); });
    run["sink_stop_s"] = SecondsSince(stop_start);
    const auto stats = sink->GetStats();
    run["events_appended"] = static_cast<unsigned long long>(
        obs::EventLog::Global().TotalAppended());
    run["sink_events_written"] =
        static_cast<unsigned long long>(stats.events_written);
    run["sink_dropped"] = static_cast<unsigned long long>(stats.dropped);
    run["sink_write_errors"] =
        static_cast<unsigned long long>(stats.write_errors);
    run["sink_rotations"] = static_cast<unsigned long long>(stats.rotations);
    run["sink_max_drain_batch"] =
        static_cast<unsigned long long>(stats.max_drain_batch);
    std::uint64_t bytes = 0;
    for (const auto& [name, stream] : sink->CurrentManifest().streams) {
      for (const auto& segment : stream.segments) bytes += segment.bytes;
    }
    run["sink_bytes"] = static_cast<unsigned long long>(bytes);
    run["health_evaluations"] = static_cast<unsigned long long>(
        obs::HealthEngine::Global().Summary().evaluations);
    const obs::LatencyProfileSummary profile =
        obs::LatencyProfiler::Global().Summary();
    obs::JsonObject phases;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      phases[std::string(obs::PhaseName(static_cast<obs::Phase>(p)))] =
          profile.fleet[p].total_us;
    }
    double barrier_us = 0.0;
    for (const auto& shard : profile.shards) barrier_us += shard.barrier_wait_us;
    phases["barrier_wait"] = barrier_us;
    phases["cache_lock_wait"] = profile.cache.wait_us;
    run["profile_us"] = std::move(phases);
    sink.reset();
    std::filesystem::remove_all(sink_dir);
  }
  return run;
}

obs::JsonArray SpansToJson(const std::vector<Span>& spans) {
  obs::JsonArray out;
  for (const auto& span : spans) {
    out.emplace_back(obs::JsonObject{{"name", span.name},
                                     {"start_s", span.start_s},
                                     {"end_s", span.end_s}});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  try {
    const Args args = ParseArgs(argc, argv);
    const Workload workload = WorkloadByName(args.workload);
    obs::EnabledScope obs_scope(workload.observed);
    if (workload.observed) obs::EventLog::Global().Configure(kObservedEventLog);

    obs::JsonObject out;
    out["workload"] = workload.name;
    out["seed"] = static_cast<unsigned long long>(args.seed);
    out["shards"] = static_cast<unsigned long long>(kShards);
    out["hardware_concurrency"] =
        static_cast<unsigned long long>(std::thread::hardware_concurrency());
    out["simd_tier"] = ml::SimdTierName(ml::FlatForest::ActiveTier());
    out["quantized_active"] = ml::FlatForest::QuantizedActive();
    out["compiler"] = PERFBENCH_COMPILER;
    out["build_type"] = PERFBENCH_BUILD_TYPE;

    SpanLog spans(args.trace, origin);
    std::unique_ptr<Stack> stack;
    obs::JsonArray setup_s = TimeSetUps(workload, args.trace, spans, stack);
    out["setup_s"] = std::move(setup_s);
    out["train_rows"] = static_cast<unsigned long long>(stack->train_rows);

    const auto trace = MakeTrace(workload, *stack, args.seed, spans);
    out["arrivals"] = static_cast<unsigned long long>(trace.size());
    out["setup_peak_rss_mb"] = PeakRssMb();

    // An untimed warm-up run on another seed's trace fills the prediction
    // cache and the allocator's free lists, so measured runs see a
    // service in steady state. Then fleet runs of the measured trace
    // repeat until the budget is spent (at least two). A traced
    // invocation alternates traced and untraced runs, traced first; the
    // first traced run is the one the layer table describes. run.py
    // compares every measured run's placements.
    SpanLog off(false, origin);
    out["warmup"] = spans.Time("bench.warmup", [&] {
      const std::uint64_t warmup_seed = args.seed ^ kWarmupSeedMix;
      const auto warmup_trace = MakeTrace(workload, *stack, warmup_seed, off);
      return RunFleet(workload, *stack, warmup_trace, warmup_seed, false, off,
                      args.scratch + "/sink-warmup");
    });
    obs::JsonArray runs;
    const auto measure_start = Clock::now();
    double traced_wall_s = 0.0;
    for (int r = 0;; ++r) {
      const bool traced = args.trace && r % 2 == 0;
      // Each measured run's own memory peak, from the resident set the
      // set-up and the earlier runs left.
      ResetPeakRss();
      obs::JsonObject run =
          RunFleet(workload, *stack, trace, args.seed, traced,
                   traced ? spans : off,
                   args.scratch + "/sink-" + std::to_string(r));
      run["peak_rss_mb"] = PeakRssMb();
      runs.emplace_back(std::move(run));
      if (r == 0) traced_wall_s = spans.Now();
      if (r >= 1 && SecondsSince(measure_start) >= args.seconds) break;
    }
    out["runs"] = std::move(runs);
    if (args.trace) {
      // Spans of the first traced run and everything before it.
      std::vector<Span> first;
      for (const auto& span : spans.spans()) {
        if (span.end_s <= traced_wall_s) first.push_back(span);
      }
      out["spans"] = SpansToJson(first);
      out["traced_wall_s"] = traced_wall_s;
    }
    std::printf("%s\n", obs::JsonValue(std::move(out)).Dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_bench: %s\n", e.what());
    return 2;
  }
}
