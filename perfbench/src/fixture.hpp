// Shared pieces of the serving-path benchmark: the seeded inputs, the
// container images and request classes, the heterogeneous fleet, the
// native references and the property checks. main.cpp drives the
// workloads; tests/checks_test.cpp plants wrong answers into the checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/minillama.hpp"
#include "apps/minimd.hpp"
#include "container/image.hpp"
#include "isa/isa.hpp"
#include "service/cluster.hpp"
#include "vm/executor.hpp"
#include "vm/node.hpp"
#include "xaas/application.hpp"
#include "xaas/ir_pipeline.hpp"

namespace perfbench {

using namespace xaas;

/// SplitMix64: every buffer the benchmark sends is drawn from it, so one
/// seed gives one set of inputs.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

private:
  std::uint64_t state_;
};

enum class App { Minimd, Minilulesh, Minillama };
inline constexpr App kApps[] = {App::Minimd, App::Minilulesh, App::Minillama};
const char* app_name(App app);

/// What an app's `app_main` computes differently between the
/// configurations the benchmark serves (everything else in a
/// configuration changes cost, not the returned value).
struct Semantics {
  bool reference_kernels = false;  // MD_SIMD=None / LL_SIMD=None
  bool mpi = false;                // MD_MPI / LULESH_MPI halo exchange
};

/// Problem size of one request. Only the fields of the request's app
/// are read.
struct Size {
  apps::MdWorkloadParams md;
  int lulesh_elements = 0;
  int lulesh_steps = 0;
  apps::LlamaWorkloadParams llama;
};

/// The app's argument layout with every buffer filled from `rng`.
vm::Workload make_inputs(App app, const Size& size, Rng& rng);

/// Native C++ re-implementation of each app's `app_main` for the given
/// configuration semantics: the value a served run must return.
double native_reference(App app, const Semantics& semantics,
                        const vm::Workload& inputs);

/// Relative tolerance between a served `ret_f64` and the native
/// reference. The VM vectorizes and FMA-fuses reductions, which
/// reassociates sums; nothing else may differ.
inline constexpr double kReturnRtol = 1e-9;
bool returns_match(double served, double expected);

/// The three mini apps, their source images and their IR images.
struct Images {
  Application apps[3];
  container::Image source[3];
  container::Image ir[3];
  bool ok = false;
  std::string error;

  static std::string reference(App app, bool source);
};

/// Builds the source images and runs build_ir_container (the §4.3
/// pipeline) once per app.
Images build_images();

/// Wall time of build_ir_container per app, and what the pipeline made.
struct IrBuildTiming {
  double seconds[3] = {0.0, 0.0, 0.0};  // median per app
  DedupStats stats[3];
  std::string error;
};

/// Times build_ir_container per app: the median of kIrBuildRepeats
/// identical builds after one warm-up build. minimd is timed at paper
/// scale (the §6.4 five-ISA family: 8710 translation units, a few
/// tenths of a second a build), not at the served image's scale;
/// minilulesh and minillama rebuild their served images. Every repeat
/// must reproduce the first build's image.
IrBuildTiming time_ir_builds(const Images& images);
inline constexpr int kIrBuildRepeats = 21;

/// One request class: the specialization a request names.
struct RequestClass {
  std::string name;
  App app = App::Minimd;
  bool source = false;
  std::map<std::string, std::string> selections;
  Semantics semantics;
  isa::VectorIsa march = isa::VectorIsa::AVX2_256;
  int opt_level = 2;
  vm::Workload inputs;  // seeded; every request of the class sends these
};

/// One request class of `app`: configuration `config` (0 or 1) of the
/// two served ones, inputs drawn from `rng` at `size` jittered by up to
/// 1/32.
RequestClass make_class(App app, bool source, int config,
                        isa::VectorIsa march, int opt_level, const Size& size,
                        Rng& rng);

/// The 48 classes of the full matrix: 3 apps x {IR, source} x 2
/// configurations x 2 marches x 2 opt levels. Inputs are drawn from
/// `rng` at `size` (each class jittered by up to 1/32 of its size).
std::vector<RequestClass> full_matrix(const Size& size, Rng& rng);

/// A few classes at compute-heavy sizes (one per app and image kind).
std::vector<RequestClass> compute_classes(Rng& rng);

service::RunRequest make_request(const RequestClass& cls);

/// Heterogeneous fleet: every gateway slice holds one Skylake-AVX512, one
/// Zen2 and one Haswell node. AVX-512 classes run on the first only.
inline constexpr std::size_t kGateways = 2;
std::vector<vm::NodeSpec> make_fleet();
/// A cluster over make_fleet() with the six images pushed.
std::unique_ptr<service::Cluster> start_cluster(const Images& images,
                                                service::ClusterOptions options);
/// Microarchitecture of a fleet node (by name prefix).
std::string microarch_of(const std::string& node_name);
/// One fixed node per microarchitecture (for direct references).
const std::vector<vm::NodeSpec>& reference_nodes();

// ---- Property checks -------------------------------------------------------
// Each returns "" when the property holds, else a description of the
// first violation.

/// One completed request as the checks see it.
struct Outcome {
  std::size_t cls = 0;
  std::string microarch;
  bool ok = false;
  double ret = 0.0;
  std::string digest;
};

/// Every served return matches its class's native reference.
std::string check_returns(const std::vector<Outcome>& outcomes,
                          const std::vector<double>& expected);

using PairKey = std::pair<std::size_t, std::string>;  // (class, microarch)
/// All requests of one (class, microarchitecture) share one digest, and
/// it equals the direct deploy+run digest of that pair.
std::string check_digests(const std::vector<Outcome>& outcomes,
                          const std::map<PairKey, std::string>& direct);

/// Requests the generator saw complete == sum of vm.runs over gateways.
std::string check_runs(std::uint64_t completed, std::uint64_t vm_runs);

/// No request failed: the benchmark's workloads all serve successfully.
std::string check_no_failures(std::uint64_t failed, const std::string& first_error);

/// A cold round specialized exactly the planned distinct classes.
std::string check_cold_misses(std::uint64_t misses, std::uint64_t planned);

/// A restart round (or a warm timed phase) lowered and compiled nothing.
std::string check_no_rebuilds(std::uint64_t lowerings,
                              std::uint64_t tu_compiles);

/// A restart round added no blob to the store it revived from.
std::string check_no_writes(std::uint64_t store_writes);

// ---- Direct references -----------------------------------------------------

/// One direct (cache-free) deployment of a class plus its runs on every
/// reference node that can execute it.
struct DirectResult {
  bool ok = false;
  std::string error;
  /// Wall interval of deploy_ir_container / build_source_deploy.
  std::chrono::steady_clock::time_point deploy_start, deploy_end;
  std::map<std::string, std::string> digests;   // microarch -> digest
  std::map<std::string, vm::RunResult> runs;    // microarch -> run
};

/// IR classes: deploy_ir_container. Source classes: plan_source_deploy
/// then build_source_deploy with a fresh (cold) CompileCache.
DirectResult direct_run(const Images& images, const RequestClass& cls);

/// Sum of a counter over every gateway of a cluster.
std::uint64_t gateway_counter(service::Cluster& cluster,
                              const std::string& name);

/// Lowerings by both specialization caches of every gateway (IR deploys
/// and source builds).
std::uint64_t total_lowerings(service::Cluster& cluster);

}  // namespace perfbench
