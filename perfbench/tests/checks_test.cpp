// The benchmark's own tests: each property check the benchmark runs must
// pass on real served results and fail on a planted wrong answer.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests      (or: python3 perfbench/run.py --self-test)
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "fixture.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

/// One IR class per (app, configuration), small inputs.
std::vector<RequestClass> test_classes() {
  Size size;
  size.md = {48, 8, 2, 32};
  size.lulesh_elements = 128;
  size.lulesh_steps = 3;
  size.llama = {24, 2, 2};
  Rng rng(7);
  std::vector<RequestClass> picked;
  for (RequestClass& cls : full_matrix(size, rng)) {
    if (!cls.source && cls.march == isa::VectorIsa::AVX2_256 &&
        cls.opt_level == 2) {
      picked.push_back(std::move(cls));
    }
  }
  return picked;
}

/// The same inputs with the middle element of the first buffer argument
/// nudged: every app's return value depends on it (the MPI builds
/// overwrite the first elements with halo copies).
vm::Workload perturbed(const vm::Workload& inputs) {
  vm::Workload out = inputs;
  auto& buffer = out.f64_buffers.at(out.args.front().buffer);
  buffer[buffer.size() / 2] += 1.0;
  return out;
}

std::unique_ptr<service::Cluster> make_cluster(const Images& images,
                                               const std::string& root) {
  service::ClusterOptions options;
  options.gateways = kGateways;
  options.dispatchers_per_gateway = 1;
  options.artifact_root = root;
  options.steal = false;  // each class stays on its home gateway
  return start_cluster(images, options);
}

std::vector<Outcome> serve(service::Cluster& cluster,
                           const std::vector<RequestClass>& classes,
                           const std::vector<std::size_t>& order) {
  std::vector<service::RunRequest> requests;
  for (std::size_t c : order) requests.push_back(make_request(classes[c]));
  std::vector<Outcome> outcomes;
  const auto results = cluster.run_all(std::move(requests));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const service::RunResult& r = results[i].result;
    outcomes.push_back({order[i], microarch_of(r.node_name), r.ok,
                        r.run.ret_f64, r.numerics_digest});
  }
  return outcomes;
}

void run_tests() {
  const Images images = build_images();
  expect(images.ok, "images build: " + images.error);
  if (!images.ok) return;
  const std::vector<RequestClass> classes = test_classes();
  expect(classes.size() == 6, "one test class per app and configuration");

  // Native references against direct runs.
  std::vector<Outcome> direct_outcomes;
  std::map<PairKey, std::string> direct;
  std::vector<double> expected, expected_perturbed;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const DirectResult d = direct_run(images, classes[c]);
    expect(d.ok, classes[c].name + " direct run: " + d.error);
    for (const auto& [microarch, run] : d.runs) {
      direct_outcomes.push_back(
          {c, microarch, true, run.ret_f64, d.digests.at(microarch)});
      direct[{c, microarch}] = d.digests.at(microarch);
    }
    expected.push_back(native_reference(classes[c].app, classes[c].semantics,
                                        classes[c].inputs));
    expected_perturbed.push_back(native_reference(
        classes[c].app, classes[c].semantics, perturbed(classes[c].inputs)));
  }
  expect(check_returns(direct_outcomes, expected).empty(),
         "returns: direct runs match the native references");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<double> planted = expected;
    planted[c] = expected_perturbed[c];
    expect(!check_returns(direct_outcomes, planted).empty(),
           "returns: reference on perturbed input is caught for " +
               classes[c].name);
  }
  expect(!returns_match(1.0, 1.0 + 1e-6), "returns: 1e-6 relative error is caught");

  // Digest equality, counter reconciliation and the cold-miss count on a
  // cluster round; each class sent twice.
  const fs::path root = fs::current_path() / "checks_test_store";
  std::error_code ec;
  fs::remove_all(root, ec);
  std::vector<std::size_t> order;
  for (std::size_t c = 0; c < classes.size(); ++c) order.push_back(c);
  for (std::size_t c = 0; c < classes.size(); ++c) order.push_back(c);
  {
    auto cluster = make_cluster(images, (root / "cold").string());
    const std::vector<Outcome> served = serve(*cluster, classes, order);
    expect(check_returns(served, expected).empty(),
           "returns: served runs match the native references");
    expect(check_digests(served, direct).empty(),
           "digests: served digests equal the direct deploy+run digests");
    std::map<PairKey, std::string> planted_direct = direct;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      RequestClass wrong = classes[c];
      wrong.inputs = perturbed(wrong.inputs);
      const DirectResult d = direct_run(images, wrong);
      for (const auto& [microarch, digest] : d.digests) {
        planted_direct[{c, microarch}] = digest;
      }
    }
    expect(!check_digests(served, planted_direct).empty(),
           "digests: direct references on perturbed input are caught");
    std::vector<Outcome> split = served;
    split.push_back(served.front());
    split.back().digest = std::string(64, '0');
    expect(!check_digests(split, direct).empty(),
           "digests: two digests for one (class, microarch) are caught");

    std::uint64_t completed = 0;
    for (const Outcome& o : served) completed += o.ok ? 1 : 0;
    const std::uint64_t runs = gateway_counter(*cluster, "vm.runs");
    expect(check_runs(completed, runs).empty(),
           "runs: completed requests equal the gateways' vm.runs");
    expect(!check_runs(completed + 1, runs).empty(),
           "runs: a request counted twice is caught");

    // A request the cluster cannot serve counts as failed.
    std::uint64_t failed = 0;
    for (const Outcome& o : served) failed += o.ok ? 0 : 1;
    expect(check_no_failures(failed, "").empty(),
           "failures: every served request completed");
    service::RunRequest unknown = make_request(classes.front());
    unknown.image_reference = "perfbench/no-such-image:ir";
    const service::ClusterRunResult bad = cluster->run_all({unknown}).front();
    expect(!bad.result.ok, "failures: a request for an unknown image fails");
    expect(!check_no_failures(bad.result.ok ? 0 : 1, bad.result.error).empty(),
           "failures: a failed request is caught");

    // Twelve requests but six distinct specializations: a planner that
    // counts requests instead of classes is caught.
    const std::uint64_t misses = gateway_counter(*cluster, "spec_cache.misses");
    expect(check_cold_misses(misses, classes.size()).empty(),
           "cold misses: one miss per distinct class");
    expect(!check_cold_misses(misses, order.size()).empty(),
           "cold misses: counting requests instead of classes is caught");
  }

  // Restart over the populated store rebuilds nothing; the planted wrong
  // answer is a "restart" over an empty store.
  {
    auto cluster = make_cluster(images, (root / "cold").string());
    serve(*cluster, classes, order);
    expect(check_no_rebuilds(total_lowerings(*cluster),
                             cluster->gateway(0).farm().tu_compiles() +
                                 cluster->gateway(1).farm().tu_compiles())
               .empty(),
           "restart: a populated store revives every class");
    expect(check_no_writes(gateway_counter(*cluster, "artifact_store.writes")).empty(),
           "restart: reviving writes nothing to the store");
  }
  {
    auto cluster = make_cluster(images, (root / "empty").string());
    serve(*cluster, classes, order);
    expect(!check_no_rebuilds(total_lowerings(*cluster), 0).empty(),
           "restart: lowering over an empty store is caught");
    expect(!check_no_writes(gateway_counter(*cluster, "artifact_store.writes")).empty(),
           "restart: writing to the store is caught");
  }
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::run_tests();
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
