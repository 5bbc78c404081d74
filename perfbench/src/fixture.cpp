#include "fixture.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "apps/minilulesh.hpp"
#include "minicc/compile_cache.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/source_container.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Few generated modules keep a cold source build (every TU compiled) short
/// in the served minimd image.
constexpr int kMinimdModules = 8;
constexpr int kMinimdGpuModules = 4;
/// The timed minimd IR build is the paper-scale one of bench/sec64_reduction
/// (6 core + 2 lib + 1731 modules + 3 tools, 41 GPU modules).
constexpr int kPaperMinimdModules = 1731;
constexpr int kPaperMinimdGpuModules = 41;

struct AppSetup {
  /// IR build points (the cartesian product is the baked configuration set).
  std::map<std::string, std::vector<std::string>> points;
  /// The two configurations served, with what they change in app_main.
  std::map<std::string, std::string> configs[2];
  Semantics semantics[2];
};

AppSetup app_setup(App app) {
  switch (app) {
    case App::Minimd:
      return {{{"MD_SIMD",
                {"None", "SSE2", "SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}},
               {"MD_MPI", {"OFF", "ON"}},
               {"MD_FFT", {"fftpack", "fftw3", "mkl"}},
               {"MD_BLAS", {"internal", "openblas", "mkl"}}},
              {{{"MD_SIMD", "AVX_512"}, {"MD_MPI", "OFF"}, {"MD_FFT", "fftw3"},
                {"MD_BLAS", "internal"}},
               {{"MD_SIMD", "None"}, {"MD_MPI", "ON"}, {"MD_FFT", "fftpack"},
                {"MD_BLAS", "internal"}}},
              {{false, false}, {true, true}}};
    case App::Minilulesh:
      return {{{"LULESH_MPI", {"OFF", "ON"}}, {"LULESH_OPENMP", {"OFF", "ON"}}},
              {{{"LULESH_MPI", "OFF"}, {"LULESH_OPENMP", "ON"}},
               {{"LULESH_MPI", "ON"}, {"LULESH_OPENMP", "OFF"}}},
              {{false, false}, {false, true}}};
    case App::Minillama:
      return {{{"LL_SIMD", {"None", "AVX_512"}}},
              {{{"LL_SIMD", "AVX_512"}}, {{"LL_SIMD", "None"}}},
              {{false, false}, {true, false}}};
  }
  return {};
}

Application make_app(App app) {
  switch (app) {
    case App::Minimd: {
      apps::MinimdOptions options;
      options.module_count = kMinimdModules;
      options.gpu_module_count = kMinimdGpuModules;
      return apps::make_minimd(options);
    }
    case App::Minilulesh: return apps::make_minilulesh();
    case App::Minillama: return apps::make_minillama();
  }
  return {};
}

int jitter(int value, Rng& rng) {
  return value + static_cast<int>(rng.next() % static_cast<std::uint64_t>(
                                                   value / 32 + 1));
}

/// `size` with every dimension that scales the work jittered by up to
/// 1/32: the modeled run time is then a function of the seed too.
Size jittered(const Size& size, Rng& rng) {
  Size s = size;
  s.md.atoms = jitter(size.md.atoms, rng);
  s.lulesh_elements = jitter(size.lulesh_elements, rng);
  s.llama.d_model = jitter(size.llama.d_model, rng);
  return s;
}

std::string class_name(App app, bool source,
                       const std::map<std::string, std::string>& selections,
                       isa::VectorIsa march, int opt_level) {
  std::string name = std::string(app_name(app)) + (source ? "/src/" : "/ir/");
  bool first = true;
  for (const auto& [option, value] : selections) {
    name += (first ? "" : ",") + option + "=" + value;
    first = false;
  }
  return name + "/O" + std::to_string(opt_level) + "/" +
         std::string(isa::to_string(march));
}

}  // namespace

const char* app_name(App app) {
  switch (app) {
    case App::Minimd: return "minimd";
    case App::Minilulesh: return "minilulesh";
    case App::Minillama: return "minillama";
  }
  return "?";
}

std::string Images::reference(App app, bool source) {
  return std::string("perfbench/") + app_name(app) + (source ? ":src" : ":ir");
}

Images build_images() {
  Images images;
  for (App app : kApps) {
    const auto a = static_cast<std::size_t>(app);
    images.apps[a] = make_app(app);
    images.source[a] = build_source_image(images.apps[a], isa::Arch::X86_64);
    IrBuildOptions options;
    options.points = app_setup(app).points;
    IrContainerBuild build =
        build_ir_container(images.apps[a], isa::Arch::X86_64, options);
    if (!build.ok) {
      images.error = std::string("IR build of ") + app_name(app) +
                     " failed: " + build.error;
      return images;
    }
    images.ir[a] = std::move(build.image);
  }
  images.ok = true;
  return images;
}

IrBuildTiming time_ir_builds(const Images& images) {
  IrBuildTiming timing;
  for (App app : kApps) {
    const auto a = static_cast<std::size_t>(app);
    Application paper_scale;
    IrBuildOptions options;
    options.points = app_setup(app).points;
    if (app == App::Minimd) {
      apps::MinimdOptions md;
      md.module_count = kPaperMinimdModules;
      md.gpu_module_count = kPaperMinimdGpuModules;
      paper_scale = apps::make_minimd(md);
      options.points = {{"MD_SIMD",
                         {"SSE4.1", "AVX2_128", "AVX_256", "AVX2_256", "AVX_512"}}};
    }
    const Application& built = app == App::Minimd ? paper_scale : images.apps[a];
    // One untimed warm-up build, then the median of identical builds: a
    // slow spell of the host that covers a few builds does not move it.
    std::vector<double> seconds;
    std::string first_digest;
    for (int rep = 0; rep <= kIrBuildRepeats; ++rep) {
      const auto start = Clock::now();
      IrContainerBuild build = build_ir_container(built, isa::Arch::X86_64, options);
      if (rep > 0) seconds.push_back(seconds_since(start));
      const std::string digest = build.ok ? build.image.digest() : "";
      if (rep == 0) {
        first_digest = digest;
        timing.stats[a] = build.stats;
      }
      const bool reproduces = app == App::Minimd ? digest == first_digest
                                                 : digest == images.ir[a].digest();
      if (!build.ok || !reproduces) {
        timing.error = std::string("IR rebuild of ") + app_name(app) +
                       " failed or differs from the first build";
        return timing;
      }
    }
    std::sort(seconds.begin(), seconds.end());
    timing.seconds[a] = seconds[seconds.size() / 2];
  }
  return timing;
}

RequestClass make_class(App app, bool source, int config,
                        isa::VectorIsa march, int opt_level, const Size& size,
                        Rng& rng) {
  const AppSetup setup = app_setup(app);
  RequestClass cls;
  cls.app = app;
  cls.source = source;
  cls.selections = setup.configs[config];
  cls.semantics = setup.semantics[config];
  cls.march = march;
  cls.opt_level = opt_level;
  cls.name = class_name(app, source, cls.selections, march, opt_level);
  cls.inputs = make_inputs(app, jittered(size, rng), rng);
  return cls;
}

std::vector<RequestClass> full_matrix(const Size& size, Rng& rng) {
  std::vector<RequestClass> classes;
  for (App app : kApps) {
    for (bool source : {false, true}) {
      for (int config = 0; config < 2; ++config) {
        for (isa::VectorIsa march :
             {isa::VectorIsa::AVX2_256, isa::VectorIsa::AVX_512}) {
          for (int opt : {2, 3}) {
            classes.push_back(make_class(app, source, config, march, opt, size, rng));
          }
        }
      }
    }
  }
  return classes;
}

std::vector<RequestClass> compute_classes(Rng& rng) {
  Size size;
  size.md = {1024, 32, 1, 2048};
  size.lulesh_elements = 65536;
  size.lulesh_steps = 2;
  size.llama = {384, 1, 1};
  // (app, source, march), each in its first configuration at -O2.
  const struct {
    App app;
    bool source;
    isa::VectorIsa march;
  } picks[] = {
      {App::Minillama, false, isa::VectorIsa::AVX_512},
      {App::Minillama, true, isa::VectorIsa::AVX2_256},
      {App::Minimd, false, isa::VectorIsa::AVX2_256},
      {App::Minilulesh, true, isa::VectorIsa::AVX2_256},
  };
  std::vector<RequestClass> classes;
  for (const auto& pick : picks) {
    classes.push_back(make_class(pick.app, pick.source, 0, pick.march, 2, size, rng));
  }
  return classes;
}

service::RunRequest make_request(const RequestClass& cls) {
  service::RunRequest request;
  request.image_reference = Images::reference(cls.app, cls.source);
  request.selections = cls.selections;
  // An explicit march fixes the lowering target whichever node the
  // request lands on, so the specialization set per round is exact.
  request.march = cls.march;
  request.opt_level = cls.opt_level;
  request.auto_specialize = false;
  request.workload = cls.inputs;
  request.threads = 1;
  return request;
}

std::vector<vm::NodeSpec> make_fleet() {
  const std::vector<std::vector<vm::NodeSpec>> groups = {
      vm::simulated_fleet(vm::node("ault23"), kGateways, "skylake_avx512-"),
      vm::simulated_fleet(vm::node("ault25"), kGateways, "zen2-"),
      vm::simulated_fleet(vm::node("devbox"), kGateways, "haswell-"),
  };
  // Contiguous slices per gateway (Cluster's split): interleave so every
  // slice holds one node of each microarchitecture.
  std::vector<vm::NodeSpec> fleet;
  for (std::size_t g = 0; g < kGateways; ++g) {
    for (const auto& group : groups) fleet.push_back(group[g]);
  }
  return fleet;
}

std::unique_ptr<service::Cluster> start_cluster(const Images& images,
                                                service::ClusterOptions options) {
  auto cluster = std::make_unique<service::Cluster>(make_fleet(), std::move(options));
  for (App app : kApps) {
    const auto a = static_cast<std::size_t>(app);
    cluster->push(images.ir[a], Images::reference(app, false));
    cluster->push(images.source[a], Images::reference(app, true));
  }
  return cluster;
}

std::string microarch_of(const std::string& node_name) {
  return node_name.substr(0, node_name.rfind('-'));
}

const std::vector<vm::NodeSpec>& reference_nodes() {
  static const std::vector<vm::NodeSpec> nodes = [] {
    std::vector<vm::NodeSpec> out;
    for (const char* base : {"ault23", "ault25", "devbox"}) {
      const vm::NodeSpec& spec = vm::node(base);
      out.push_back(
          vm::simulated_fleet(spec, 1, spec.cpu.microarch + "-ref")[0]);
    }
    return out;
  }();
  return nodes;
}

// ---- Property checks -------------------------------------------------------

std::string check_returns(const std::vector<Outcome>& outcomes,
                          const std::vector<double>& expected) {
  for (const Outcome& o : outcomes) {
    if (!o.ok) continue;
    if (o.cls >= expected.size() || !returns_match(o.ret, expected[o.cls])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "class %zu returned %.17g, native reference %.17g", o.cls,
                    o.ret, o.cls < expected.size() ? expected[o.cls] : 0.0);
      return buf;
    }
  }
  return "";
}

std::string check_digests(const std::vector<Outcome>& outcomes,
                          const std::map<PairKey, std::string>& direct) {
  std::map<PairKey, std::set<std::string>> seen;
  for (const Outcome& o : outcomes) {
    if (o.ok) seen[{o.cls, o.microarch}].insert(o.digest);
  }
  for (const auto& [pair, digests] : seen) {
    const std::string where =
        "class " + std::to_string(pair.first) + " on " + pair.second;
    if (digests.size() != 1) {
      return where + ": " + std::to_string(digests.size()) +
             " distinct numerics digests";
    }
    const auto it = direct.find(pair);
    if (it == direct.end()) return where + ": no direct reference";
    if (it->second != *digests.begin()) {
      return where + ": served digest differs from the direct deploy+run";
    }
  }
  return "";
}

std::string check_runs(std::uint64_t completed, std::uint64_t vm_runs) {
  if (completed == vm_runs) return "";
  return "generator completed " + std::to_string(completed) +
         " requests but the gateways report " + std::to_string(vm_runs) +
         " vm.runs";
}

std::string check_no_failures(std::uint64_t failed,
                              const std::string& first_error) {
  if (failed == 0) return "";
  return std::to_string(failed) + " requests failed, first: " + first_error;
}

std::string check_cold_misses(std::uint64_t misses, std::uint64_t planned) {
  if (misses == planned) return "";
  return "cold round: " + std::to_string(misses) +
         " spec_cache.misses for " + std::to_string(planned) +
         " planned specializations";
}

std::string check_no_rebuilds(std::uint64_t lowerings,
                              std::uint64_t tu_compiles) {
  if (lowerings == 0 && tu_compiles == 0) return "";
  return std::to_string(lowerings) + " lowerings and " +
         std::to_string(tu_compiles) + " TU compiles where none may happen";
}

std::string check_no_writes(std::uint64_t store_writes) {
  if (store_writes == 0) return "";
  return std::to_string(store_writes) + " store writes in a restart round";
}

// ---- Direct references -----------------------------------------------------

DirectResult direct_run(const Images& images, const RequestClass& cls) {
  DirectResult out;
  const auto a = static_cast<std::size_t>(cls.app);
  const vm::NodeSpec* home = nullptr;
  for (const vm::NodeSpec& node : reference_nodes()) {
    if (isa::runs_on(cls.march, node.best_vector_isa())) {
      home = &node;
      break;
    }
  }
  if (home == nullptr) {
    out.error = cls.name + ": no reference node runs its march";
    return out;
  }

  DeployedApp deployed;
  if (cls.source) {
    SourceDeployOptions options;
    options.auto_specialize = false;
    options.selections = cls.selections;
    options.march = cls.march;
    options.opt_level = cls.opt_level;
    const SourceDeployPlan plan =
        plan_source_deploy(images.source[a], images.apps[a], *home, options);
    if (!plan.ok) {
      out.error = cls.name + ": plan_source_deploy failed: " + plan.error;
      return out;
    }
    minicc::CompileCache cold_cache;
    out.deploy_start = Clock::now();
    deployed =
        build_source_deploy(images.source[a], images.apps[a], plan, &cold_cache);
    out.deploy_end = Clock::now();
  } else {
    IrDeployOptions options;
    options.selections = cls.selections;
    options.march = cls.march;
    options.opt_level = cls.opt_level;
    out.deploy_start = Clock::now();
    deployed = deploy_ir_container(images.ir[a], *home, options);
    out.deploy_end = Clock::now();
  }
  if (!deployed.ok) {
    out.error = cls.name + ": direct deploy failed: " + deployed.error;
    return out;
  }
  for (const vm::NodeSpec& node : reference_nodes()) {
    if (!isa::runs_on(cls.march, node.best_vector_isa())) continue;
    vm::Workload workload = cls.inputs;
    vm::RunResult run = deployed.run_on(node, workload, 1);
    if (!run.ok) {
      out.error = cls.name + ": direct run on " + node.name +
                  " failed: " + run.error;
      return out;
    }
    const std::string microarch = microarch_of(node.name);
    out.digests[microarch] = service::numerics_digest(run, workload);
    out.runs[microarch] = std::move(run);
  }
  out.ok = true;
  return out;
}

std::uint64_t gateway_counter(service::Cluster& cluster,
                              const std::string& name) {
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    total += cluster.gateway(g).snapshot().counter(name);
  }
  return total;
}

std::uint64_t total_lowerings(service::Cluster& cluster) {
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    total += cluster.gateway(g).scheduler().cache().lowerings() +
             cluster.gateway(g).farm().cache().lowerings();
  }
  return total;
}

}  // namespace perfbench
