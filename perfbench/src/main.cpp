// Serving-path benchmark of the XaaS cluster: one load generator drives
// service::Cluster (admission to ClusterRunResult) over a heterogeneous
// simulated fleet serving minimd, minilulesh and minillama as IR and
// source images.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Workloads (all closed loops: one generator thread, at most nproc
// requests outstanding):
//   cold_specialize     every request is the first of its class: each
//                       round starts a fresh cluster over an empty store
//   warm_light          every class warm in memory, tiny inputs, three
//                       tenants with different WFQ weights
//   warm_compute        a few warm classes with megabyte inputs
//   restart_from_store  each round starts a fresh cluster over a store
//                       set-up populated: revive from disk, no builds
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded and prints the per-layer metrics. The
// last stdout line is one JSON object either way. Every run checks its
// outputs (native references, digest equality, counter identities).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include "fixture.hpp"
#include "service/gateway.hpp"
#include "service/sharded_registry.hpp"
#include "trace.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/source_container.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench/out";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

/// Stage timings of one request, kept only in traced runs (untraced runs
/// keep one latency per request, so peak RSS measures the cluster rather
/// than the benchmark's bookkeeping).
struct Record {
  Clock::time_point client_start, client_end;
  double cluster_total = 0.0;  // ClusterRunResult::total_seconds
  double gateway_total = 0.0;  // RunResult::total_seconds
  double queue = 0.0, deploy = 0.0, run = 0.0;
};

/// What the checks need from every completed request, deduplicated: one
/// entry per distinct (class, microarchitecture, return, digest).
using Distinct = std::set<std::tuple<std::size_t, std::string, double, std::string>>;

/// Position in a round: which class, sent as which tenant.
struct Planned {
  std::size_t cls = 0;
  std::string tenant;
};

/// The counters the per-layer metrics read, summed over gateways.
const char* const kGatewayCounters[] = {
    "spec_cache.misses",       "spec_cache.disk_hits",
    "tu_cache.compiles",       "tu_cache.hits",
    "tu_cache.disk_hits",
    "artifact_store.disk_hits", "artifact_store.writes",
    "distribution.lazy_fetches", "distribution.prewarm_fetches",
    "distribution.bytes_in",   "vm.runs",
    "vm.instructions",
};

using Counters = std::map<std::string, std::uint64_t>;

Counters read_counters(service::Cluster& cluster) {
  Counters out;
  for (const char* name : kGatewayCounters) {
    out[name] = gateway_counter(cluster, name);
  }
  out["cluster.stolen"] = cluster.snapshot().counter("cluster.stolen");
  return out;
}

void add_counters(Counters& total, const Counters& after,
                  const Counters& before) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    total[name] += value - (it == before.end() ? 0 : it->second);
  }
}

struct Run {
  Args args;
  Images images;
  std::vector<RequestClass> classes;
  std::vector<Planned> plan;  // one round
  std::size_t window = 1;
  std::size_t rounds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<double> latencies;  // completed requests in order, seconds
  Distinct distinct;
  std::vector<Record> records;  // traced runs only
  double serving_seconds = 0.0;  // summed over the timed serving phases
  /// Completions per second of each slice of the timed phase: a round on
  /// the round workloads, about a second on the warm ones.
  std::vector<double> slice_rates;
  std::optional<Clock::time_point> first_submit;
  Counters counters;  // timed phase only
  /// Store and distribution counters of the untimed store phases:
  /// restart's population and, in traced runs, the peer-pull probe.
  Counters store_counters;
  /// restart_from_store's store population, which setup_s leaves out.
  Clock::time_point populate_start, populate_end;
  std::vector<std::string> violations;
  fs::path stores;

  void violation(const std::string& what) {
    if (!what.empty()) violations.push_back(what);
  }
};

service::ClusterOptions cluster_options(const Run& run) {
  service::ClusterOptions options;
  options.gateways = kGateways;
  // The cluster's threads are sized to the host: nproc dispatchers (and
  // as many gateway workers) across the gateways.
  options.dispatchers_per_gateway =
      std::max<std::size_t>(1, run.window / kGateways);
  options.tenant_quotas = {
      {"gold", {1e6, 1e6, 4.0}},
      {"silver", {1e6, 1e6, 2.0}},
      {"bronze", {1e6, 1e6, 1.0}},
  };
  return options;
}

/// Keeps what the checks need from one completed request.
void record_outcome(Run& run, std::size_t cls, const service::RunResult& r) {
  run.distinct.emplace(cls, microarch_of(r.node_name), r.run.ret_f64,
                       r.numerics_digest);
}

/// Sends every class once, straight to gateway `g`. A failed request is
/// a violation.
void run_every_class(Run& run, service::Cluster& cluster, std::size_t g,
                     const std::string& phase) {
  std::vector<service::RunRequest> requests;
  for (const RequestClass& cls : run.classes) {
    requests.push_back(make_request(cls));
  }
  const auto results = cluster.gateway(g).run_all(std::move(requests));
  for (std::size_t c = 0; c < results.size(); ++c) {
    if (results[c].ok) {
      record_outcome(run, c, results[c]);
    } else {
      run.violation(phase + " request failed: " + results[c].error);
    }
  }
}

/// The closed loop: keeps at most run.window requests outstanding and
/// sends whole rounds of run.plan. With `until` set it starts rounds
/// until that time passes; otherwise it sends exactly one round.
void closed_loop(Run& run, service::Cluster& cluster,
                 std::optional<Clock::time_point> until) {
  struct Pending {
    std::size_t cls;
    Clock::time_point start;
    std::future<service::ClusterRunResult> future;
  };
  std::vector<Pending> outstanding;
  std::size_t next = 0;
  std::size_t rounds_started = 0;
  const auto more = [&] {
    if (next != 0) return true;  // finish the round in progress
    return until ? Clock::now() < *until : rounds_started == 0;
  };
  const auto serve_start = Clock::now();
  auto slice_start = serve_start;
  std::uint64_t slice_done = 0;
  while (true) {
    while (outstanding.size() < run.window && more()) {
      const Planned& planned = run.plan[next];
      service::RunRequest request = make_request(run.classes[planned.cls]);
      request.tenant = planned.tenant;
      if (next == 0) ++rounds_started;
      next = (next + 1) % run.plan.size();
      const auto start = Clock::now();
      if (!run.first_submit) run.first_submit = start;
      outstanding.push_back(
          {planned.cls, start, cluster.submit(std::move(request))});
    }
    if (outstanding.empty()) break;
    bool collected = false;
    for (std::size_t i = 0; i < outstanding.size();) {
      Pending& p = outstanding[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const service::ClusterRunResult r = p.future.get();
      const auto end = Clock::now();
      ++run.attempted;
      if (!r.result.ok) {
        if (run.failed++ == 0) {
          run.first_error = run.classes[p.cls].name + ": " + r.result.error;
        }
      } else {
        run.latencies.push_back(r.total_seconds);
        record_outcome(run, p.cls, r.result);
        if (run.args.trace) {
          run.records.push_back({p.start, end,
                                 r.total_seconds, r.result.total_seconds,
                                 r.result.queue_seconds,
                                 r.result.deploy_seconds,
                                 r.result.run_seconds});
        }
      }
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
      collected = true;
      ++slice_done;
      if (until && end - slice_start >= std::chrono::seconds(1)) {
        run.slice_rates.push_back(slice_done / seconds_between(slice_start, end));
        slice_start = end;
        slice_done = 0;
      }
    }
    if (!collected) {
      outstanding.front().future.wait_for(std::chrono::microseconds(50));
    }
  }
  const auto serve_end = Clock::now();
  run.serving_seconds += seconds_between(serve_start, serve_end);
  if (!until) {
    run.slice_rates.push_back(slice_done / seconds_between(slice_start, serve_end));
  }
  run.rounds += rounds_started;
}

/// Sends every class once per gateway, straight to the gateway, so each
/// class is warm in every gateway's memory tier before timing starts.
void warm_every_gateway(Run& run, service::Cluster& cluster) {
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    run_every_class(run, cluster, g, "warm-up");
  }
}

std::vector<Planned> round_plan(std::size_t classes, std::uint64_t seed,
                                bool tenants) {
  static const char* const kTenants[] = {"gold", "silver", "bronze"};
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < classes; ++i) {
    plan.push_back({i, tenants ? kTenants[i % 3] : ""});
  }
  Rng rng(seed ^ 0x5eedULL);
  for (std::size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng.next() % i]);
  }
  return plan;
}

Size small_size() {
  Size size;
  size.md = {64, 8, 2, 32};
  size.lulesh_elements = 256;
  size.lulesh_steps = 4;
  size.llama = {32, 2, 2};
  return size;
}

Size tiny_size() {
  Size size;
  size.md = {32, 4, 1, 16};
  size.lulesh_elements = 64;
  size.lulesh_steps = 2;
  size.llama = {16, 1, 1};
  return size;
}

// ---- Workloads ---------------------------------------------------------------

void run_warm(Run& run, bool tenants) {
  auto cluster = start_cluster(run.images, cluster_options(run));
  run.plan = round_plan(run.classes.size(), run.args.seed, tenants);
  warm_every_gateway(run, *cluster);
  const Counters before = read_counters(*cluster);
  closed_loop(run, *cluster,
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(run.args.seconds)));
  add_counters(run.counters, read_counters(*cluster), before);
}

/// One round on a fresh cluster (over the store at `root`, if given);
/// returns its counters.
Counters fresh_cluster_round(Run& run, const fs::path& root) {
  service::ClusterOptions options = cluster_options(run);
  options.artifact_root = root.string();
  auto cluster = start_cluster(run.images, options);
  const std::uint64_t before = run.attempted - run.failed;
  const Counters zero = read_counters(*cluster);
  closed_loop(run, *cluster, std::nullopt);
  Counters delta;
  add_counters(delta, read_counters(*cluster), zero);
  run.violation(check_runs(run.attempted - run.failed - before, delta["vm.runs"]));
  delta["lowerings"] = total_lowerings(*cluster);
  return delta;
}

service::ClusterOptions store_options(const Run& run, const fs::path& root) {
  service::ClusterOptions options = cluster_options(run);
  options.artifact_root = root.string();
  options.gossip_every = 0;  // gossip only where distribution_flush() runs it
  return options;
}

/// Fills the store at `root` for the restart rounds. Gateway 0 builds
/// every class, so the write and gossip counts repeat exactly; gossip to
/// quiescence then gives gateway 1's disk every specialized artifact.
/// Timed rounds therefore revive from the local disk and write nothing
/// (a peer pull writes the pulled blob, which would tie the figure to
/// the host's file-creation latency).
void populate_store(Run& run, const fs::path& root) {
  run.populate_start = Clock::now();
  auto cluster = start_cluster(run.images, store_options(run, root));
  const Counters before = read_counters(*cluster);
  run_every_class(run, *cluster, 0, "store population");
  cluster->distribution_flush();
  add_counters(run.store_counters, read_counters(*cluster), before);
  cluster.reset();  // closes the stores
  run.populate_end = Clock::now();
}

/// Peer pulls, once, after the timed phase of a traced restart run: a
/// fresh cluster over a copy of gateway 0's disk alone, and every class
/// sent to gateway 1, which must pull each specialized artifact from
/// gateway 0 and build nothing.
void peer_pull_probe(Run& run, const fs::path& populated) {
  const fs::path root = run.stores / "peer-pull";
  fs::create_directories(root);
  fs::copy(populated / "gw0", root / "gw0",
           fs::copy_options::recursive | fs::copy_options::create_hard_links);
  auto cluster = start_cluster(run.images, store_options(run, root));
  const Counters before = read_counters(*cluster);
  run_every_class(run, *cluster, 1, "peer-pull probe");
  add_counters(run.store_counters, read_counters(*cluster), before);
  run.violation(check_no_rebuilds(total_lowerings(*cluster),
                                  gateway_counter(*cluster, "tu_cache.compiles")));
}

void run_rounds(Run& run, bool restart) {
  run.plan = round_plan(run.classes.size(), run.args.seed, false);
  const fs::path store_root = run.stores / "populated";
  if (restart) populate_store(run, store_root);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(run.args.seconds));
  for (std::size_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    // Cold rounds keep every cache in memory: an empty cluster has nothing
    // to revive, and the store's writes would make the figure the host's
    // file-creation latency, which swung 7x within an hour on the
    // reference host. Restart rounds all open the populated store: they
    // add no blob to it (checked), so every round finds what the first
    // one found.
    const Counters delta = fresh_cluster_round(run, restart ? store_root : fs::path());
    if (restart) {
      run.violation(check_no_rebuilds(delta.at("lowerings"),
                                      delta.at("tu_cache.compiles")));
      run.violation(check_no_writes(delta.at("artifact_store.writes")));
    } else {
      run.violation(check_cold_misses(delta.at("spec_cache.misses"),
                                      run.classes.size()));
    }
    add_counters(run.counters, delta, {});
    // The next round starts from a fresh cluster; hand the dead one's
    // freed heap back so peak RSS does not grow with the round count.
    malloc_trim(0);
  }
  if (restart && run.args.trace) peer_pull_probe(run, store_root);
}

// ---- Checks and metrics --------------------------------------------------------

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// 99th percentile of each window of kTailWindow consecutive completions
/// (ten samples beyond it), then the median over windows: a stall that
/// covers a few windows moves those windows, not the figure. A run with
/// fewer completions than two windows is one window.
constexpr std::size_t kTailWindow = 1000;
double windowed_p99(const std::vector<double>& latencies) {
  if (latencies.size() < 2 * kTailWindow) return percentile(latencies, 0.99);
  std::vector<double> tails;
  for (std::size_t at = 0; at + kTailWindow <= latencies.size(); at += kTailWindow) {
    tails.push_back(percentile(
        std::vector<double>(latencies.begin() + at, latencies.begin() + at + kTailWindow),
        0.99));
  }
  return percentile(tails, 0.5);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run_benchmark(const Args& args) {
  Run run;
  run.args = args;
  run.window = std::max(1u, std::thread::hardware_concurrency());
  run.stores = fs::path(args.out) / ("stores-" + std::to_string(::getpid()));

  Rng rng(args.seed);
  if (args.workload == "cold_specialize" ||
      args.workload == "restart_from_store") {
    run.classes = full_matrix(small_size(), rng);
  } else if (args.workload == "warm_light") {
    run.classes = full_matrix(tiny_size(), rng);
  } else if (args.workload == "warm_compute") {
    run.classes = compute_classes(rng);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  run.images = build_images();
  if (!run.images.ok) {
    std::fprintf(stderr, "%s\n", run.images.error.c_str());
    return 1;
  }
  if (args.workload == "cold_specialize") {
    run_rounds(run, /*restart=*/false);
  } else if (args.workload == "restart_from_store") {
    run_rounds(run, /*restart=*/true);
  } else {
    run_warm(run, /*tenants=*/args.workload == "warm_light");
  }
  std::error_code ec;
  fs::remove_all(run.stores, ec);

  // ---- Correctness: native references, digests, counter identities.
  std::vector<double> expected;
  for (const RequestClass& cls : run.classes) {
    expected.push_back(native_reference(cls.app, cls.semantics, cls.inputs));
  }
  // Spans of the benchmark's own calls into the modules (reported only by
  // traced runs): the direct references double as deploy probes.
  Tracer tracer(kProcessStart);
  const std::uint64_t probe_id = run.attempted + 1;
  const auto probe_root = tracer.open("probe.xaas", probe_id);
  std::vector<DirectResult> direct;
  std::map<PairKey, std::string> direct_digests;
  double modeled_run_s = 0.0;
  double modeled_cycles = 0.0;
  for (std::size_t c = 0; c < run.classes.size(); ++c) {
    direct.push_back(direct_run(run.images, run.classes[c]));
    const DirectResult& d = direct.back();
    run.violation(d.error);
    if (d.ok) {
      tracer.add(run.classes[c].source ? "xaas.source_build" : "xaas.ir_deploy",
                 d.deploy_start, d.deploy_end, probe_root, probe_id);
    }
    for (const auto& [microarch, digest] : d.digests) {
      direct_digests[{c, microarch}] = digest;
    }
    for (const auto& [microarch, r] : d.runs) {
      if (!returns_match(r.ret_f64, expected[c])) {
        run.violation(run.classes[c].name + " direct run on " + microarch +
                      " disagrees with the native reference");
      }
      modeled_run_s += r.elapsed_seconds;
      modeled_cycles += r.cycles_serial + r.cycles_parallel + r.cycles_gpu;
    }
  }
  std::vector<Outcome> outcomes;
  for (const auto& [cls, microarch, ret, digest] : run.distinct) {
    outcomes.push_back({cls, microarch, true, ret, digest});
  }
  run.violation(check_no_failures(run.failed, run.first_error));
  const std::uint64_t attempted = run.attempted;
  const std::uint64_t failed = run.failed;
  const std::uint64_t completed = attempted - failed;
  run.violation(check_returns(outcomes, expected));
  run.violation(check_digests(outcomes, direct_digests));
  if (args.workload.rfind("warm_", 0) == 0) {
    run.violation(check_runs(completed, run.counters["vm.runs"]));
    // Warm means warm: nothing specialized or compiled while timed.
    run.violation(check_no_rebuilds(run.counters["spec_cache.misses"],
                                    run.counters["tu_cache.compiles"]));
  }
  // Read before the IR builds below: the paper-scale minimd build takes
  // more memory than serving does, and the figure is the cluster's.
  const double peak_rss = peak_rss_mib();
  const IrBuildTiming ir_builds = time_ir_builds(run.images);
  run.violation(ir_builds.error);
  for (const std::string& v : run.violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
  }
  const bool correct = run.violations.empty();

  const std::vector<double>& latencies = run.latencies;
  // Set-up leaves out restart's store population: file creation in the
  // store swings several-fold with the host's disk load, and the traced
  // run reports it as setup.populate_s.
  const double populate_s = seconds_between(run.populate_start, run.populate_end);
  const double setup_s =
      run.first_submit
          ? seconds_between(kProcessStart, *run.first_submit) - populate_s
          : 0.0;
  double ir_build_s = 0.0;
  for (double s : ir_builds.seconds) ir_build_s += s;
  // Median over slices: a stall of a fraction of the run moves one slice,
  // not the figure.
  const double requests_per_s = percentile(run.slice_rates, 0.5);
  std::fprintf(stderr,
               "%s seed %llu: %llu requests in %zu rounds, %.3f s serving, "
               "%.1f req/s, p50 %.3f ms, p99 %.3f ms, setup %.3f s "
               "(+%.3f s store population), IR builds %.3f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(attempted), run.rounds,
               run.serving_seconds, requests_per_s,
               percentile(latencies, 0.5) * 1e3,
               windowed_p99(latencies) * 1e3, setup_s, populate_s, ir_build_s);

  if (!args.trace) {
    print_result(correct, attempted, failed,
                 {{"setup_s", setup_s, "s"},
                  {"ir_build_s", ir_build_s, "s"},
                  {"requests_per_s", requests_per_s, "1/s"},
                  {"latency_p50_ms", percentile(latencies, 0.5) * 1e3, "ms"},
                  {"latency_p99_ms", windowed_p99(latencies) * 1e3, "ms"},
                  {"modeled_run_s", modeled_run_s, "s"},
                  {"peak_rss_mib", peak_rss, "MiB"}});
    return 0;
  }

  // ---- Traced run: spans per request and per probe call.
  // What a deploy is follows from the workload, and the checks hold it:
  // every cold request misses, every restart request revives (disk or
  // peer; the program reports both as cache hits), every warm one hits.
  const char* deploy_span = args.workload == "cold_specialize"    ? "deploy.cold"
                            : args.workload == "restart_from_store" ? "deploy.revive"
                                                                    : "deploy.hit";
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const Record& rec = run.records[i];
    // Inside a request the program reports stage durations, not
    // timestamps: the cluster span starts at submission, the gateway span
    // ends with it, and queue -> deploy -> run follow the gateway start.
    const std::uint64_t id = i + 1;
    const auto client =
        tracer.add("client", rec.client_start, rec.client_end, -1, id);
    const auto cluster_end = rec.client_start + Tracer::dur(rec.cluster_total);
    const auto cluster = tracer.add("cluster", rec.client_start,
                                    std::min(cluster_end, rec.client_end),
                                    client, id);
    const auto gw_start = cluster_end - Tracer::dur(rec.gateway_total);
    const auto gateway =
        tracer.add("gateway", gw_start, cluster_end, cluster, id);
    auto t = gw_start;
    tracer.add("gateway.queue", t, t + Tracer::dur(rec.queue), gateway, id);
    t += Tracer::dur(rec.queue);
    tracer.add(deploy_span, t, t + Tracer::dur(rec.deploy), gateway, id);
    t += Tracer::dur(rec.deploy);
    tracer.add("vm.run", t, t + Tracer::dur(rec.run), gateway, id);
  }

  if (args.workload == "restart_from_store") {
    tracer.add("setup.populate", run.populate_start, run.populate_end, -1, 0);
  }

  // Probes: the benchmark's own calls into each module's public
  // functions, one span each, under one root per probe family.
  {
    const auto root = probe_root;
    // plan_* as the serving path calls them: the IR manifest parsed once
    // (as DeployScheduler caches it), the source plan from scratch.
    service::ShardedRegistry registry;
    IrImageManifest manifests[3];
    for (App app : kApps) {
      const auto a = static_cast<std::size_t>(app);
      manifests[a] = read_ir_image_manifest(run.images.ir[a]);
      registry.push(run.images.ir[a], Images::reference(app, false));
      registry.push(run.images.source[a], Images::reference(app, true));
    }
    constexpr int kPlanCalls = 8;
    for (const RequestClass& cls : run.classes) {
      const auto a = static_cast<std::size_t>(cls.app);
      const vm::NodeSpec& node = reference_nodes().front();
      for (int k = 0; k < kPlanCalls; ++k) {
        const auto start = Clock::now();
        bool ok = false;
        if (cls.source) {
          SourceDeployOptions options;
          options.auto_specialize = false;
          options.selections = cls.selections;
          options.march = cls.march;
          options.opt_level = cls.opt_level;
          ok = plan_source_deploy(run.images.source[a], run.images.apps[a],
                                  node, options)
                   .ok;
        } else {
          IrDeployOptions options;
          options.selections = cls.selections;
          options.march = cls.march;
          options.opt_level = cls.opt_level;
          ok = plan_ir_deploy(manifests[a], node, options).ok;
        }
        tracer.add(cls.source ? "xaas.plan_source" : "xaas.plan_ir", start,
                   Clock::now(), root, probe_id);
        if (!ok) run.violation(cls.name + ": plan failed in probe");
      }
    }
    constexpr int kRegistryCalls = 2000;
    std::vector<std::string> references;
    for (App app : kApps) {
      references.push_back(Images::reference(app, false));
      references.push_back(Images::reference(app, true));
    }
    for (int k = 0; k < kRegistryCalls; ++k) {
      const std::string& reference = references[k % references.size()];
      auto start = Clock::now();
      const auto digest = registry.resolve(reference);
      tracer.add("registry.resolve", start, Clock::now(), root, probe_id);
      start = Clock::now();
      const auto image = registry.pull(*digest);
      tracer.add("registry.pull", start, Clock::now(), root, probe_id);
      if (!image) run.violation("registry probe: pull returned nothing");
    }
    // numerics_digest over each class's buffers (the gateway hashes every
    // buffer of every request).
    constexpr int kDigestCalls = 4;
    for (std::size_t c = 0; c < direct.size(); ++c) {
      if (direct[c].runs.empty()) continue;
      const vm::RunResult& r = direct[c].runs.begin()->second;
      for (int k = 0; k < kDigestCalls; ++k) {
        const auto start = Clock::now();
        const std::string digest =
            service::numerics_digest(r, run.classes[c].inputs);
        tracer.add("digest", start, Clock::now(), root, probe_id,
                   static_cast<double>(service::workload_bytes(run.classes[c].inputs)));
        if (digest.empty()) run.violation("digest probe returned nothing");
      }
    }
    tracer.close(root);
  }

  const fs::path trace_path =
      fs::path(args.out) / ("trace-" + args.workload + ".jsonl");
  fs::create_directories(trace_path.parent_path());
  tracer.write(trace_path.string());

  const TraceSummary summary = tracer.summarize();
  std::fprintf(stderr, "%s", summary.render().c_str());

  const double rounds = std::max<double>(1.0, static_cast<double>(run.rounds));
  const auto per_round = [&](const char* name) {
    return static_cast<double>(run.counters[name]) / rounds;
  };
  // The store phases run once per run, outside the timed rounds.
  const auto store = [&](const char* name) {
    return static_cast<double>(run.store_counters[name]);
  };
  const double tu_total = static_cast<double>(run.counters["tu_cache.hits"] +
                                              run.counters["tu_cache.compiles"] +
                                              run.counters["tu_cache.disk_hits"]);
  const double vm_runs = static_cast<double>(run.counters["vm.runs"]);
  const double instructions = static_cast<double>(run.counters["vm.instructions"]);
  const double run_seconds = summary.total_seconds("vm.run");
  double total_tus = 0.0, unique_irs = 0.0;
  for (const DedupStats& s : ir_builds.stats) {
    total_tus += s.total_tus;
    unique_irs += s.unique_irs;
  }
  const double digest_seconds = summary.total_seconds("digest");
  const std::vector<Metric> metrics = {
      {"cluster.wait_ms_p50", summary.self_p50("cluster") * 1e3, "ms"},
      {"cluster.stolen", per_round("cluster.stolen"), "count/round"},
      {"gateway.queue_ms_p50", summary.p50("gateway.queue") * 1e3, "ms"},
      {"gateway.other_ms_p50", summary.self_p50("gateway") * 1e3, "ms"},
      {"deploy.hit_us_p50", summary.p50("deploy.hit") * 1e6, "us"},
      {"deploy.cold_ms_p50", summary.p50("deploy.cold") * 1e3, "ms"},
      {"deploy.revive_ms_p50", summary.p50("deploy.revive") * 1e3, "ms"},
      {"spec_cache.misses", per_round("spec_cache.misses"), "count/round"},
      {"spec_cache.disk_hits", per_round("spec_cache.disk_hits"), "count/round"},
      {"tu_cache.compiles", per_round("tu_cache.compiles"), "count/round"},
      {"tu_cache.hits", per_round("tu_cache.hits"), "count/round"},
      {"tu_cache.hit_ratio",
       tu_total > 0 ? static_cast<double>(run.counters["tu_cache.hits"]) / tu_total : 0.0,
       "ratio"},
      {"artifact_store.disk_hits", per_round("artifact_store.disk_hits"),
       "count/round"},
      {"artifact_store.writes", store("artifact_store.writes"), "count"},
      {"distribution.lazy_fetches", store("distribution.lazy_fetches"), "count"},
      {"distribution.prewarm_fetches", store("distribution.prewarm_fetches"),
       "count"},
      {"distribution.bytes_in", store("distribution.bytes_in"), "bytes"},
      {"setup.populate_s", populate_s, "s"},
      {"vm.run_ms_p50", summary.p50("vm.run") * 1e3, "ms"},
      {"vm.instructions_per_request", vm_runs > 0 ? instructions / vm_runs : 0.0,
       "count"},
      {"vm.minstr_per_s", run_seconds > 0 ? instructions / run_seconds / 1e6 : 0.0,
       "Minstr/s"},
      {"vm.modeled_mcycles", modeled_cycles / 1e6, "Mcycles"},
      {"digest.ms_p50", summary.p50("digest") * 1e3, "ms"},
      {"digest.mb_per_s",
       digest_seconds > 0 ? summary.total_weight("digest") / digest_seconds / 1e6 : 0.0,
       "MB/s"},
      {"xaas.plan_source_us", summary.p50("xaas.plan_source") * 1e6, "us"},
      {"xaas.plan_ir_us", summary.p50("xaas.plan_ir") * 1e6, "us"},
      {"xaas.ir_deploy_ms", summary.p50("xaas.ir_deploy") * 1e3, "ms"},
      {"xaas.source_build_ms", summary.p50("xaas.source_build") * 1e3, "ms"},
      {"ir_pipeline.total_tus", total_tus, "count"},
      {"ir_pipeline.unique_irs", unique_irs, "count"},
      {"xaas.ir_build_s.minimd", ir_builds.seconds[0], "s"},
      {"xaas.ir_build_s.minilulesh", ir_builds.seconds[1], "s"},
      {"xaas.ir_build_s.minillama", ir_builds.seconds[2], "s"},
      {"registry.resolve_us", summary.p50("registry.resolve") * 1e6, "us"},
      {"registry.pull_us", summary.p50("registry.pull") * 1e6, "us"},
      {"unattributed", summary.self_p50("client") * 1e3, "ms"},
      {"trace.requests_per_s", requests_per_s, "1/s"},
  };
  print_result(run.violations.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <cold_specialize|warm_light|"
                 "warm_compute|restart_from_store> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run_benchmark(args);
}
