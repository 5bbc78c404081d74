// Seeded inputs and the native references: each app's `app_main`
// (src/apps/*.cpp, Kernel-C) re-implemented in plain C++, so a served
// return value is checked against code that shares nothing with the
// compiler, the lowering or the VM.
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "apps/minilulesh.hpp"
#include "fixture.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

void fill(std::vector<double>& buffer, Rng& rng, double lo, double hi) {
  for (double& v : buffer) v = lo + (hi - lo) * rng.uniform();
}

const std::vector<double>& f64(const vm::Workload& w, const char* name) {
  return w.f64_buffers.at(name);
}

long long int_arg(const vm::Workload& w, std::size_t index) {
  return w.args.at(index).i;
}

// ---- minimd ------------------------------------------------------------------

double md_forces(const std::vector<double>& px, const std::vector<double>& py,
                 const std::vector<double>& pz, std::vector<double>& fx,
                 std::vector<double>& fy, std::vector<double>& fz,
                 const std::vector<double>& nbx, const std::vector<double>& nby,
                 const std::vector<double>& nbz, long long n, long long nnb,
                 bool reference_kernel) {
  constexpr double kSoftening = 0.01;
  double energy = 0.0;
  for (long long i = 0; i < n; ++i) {
    const double xi = px[i], yi = py[i], zi = pz[i];
    double fxi = 0.0, fyi = 0.0, fzi = 0.0, ei = 0.0;
    for (long long j = i * nnb; j < i * nnb + nnb; ++j) {
      const double dx = xi - nbx[j];
      const double dy = yi - nby[j];
      const double dz = zi - nbz[j];
      const double r2 = dx * dx + dy * dy + dz * dz + kSoftening;
      double inv2, inv6, sig6;
      if (reference_kernel) {
        const double rinv = 1.0 / std::sqrt(r2);
        inv2 = rinv * rinv;
        inv6 = inv2 * inv2 * inv2;
        sig6 = 1.0 / (1.0 + r2 * 0.0);
      } else {
        const double inv = 1.0 / std::sqrt(r2);
        inv2 = inv * inv;
        inv6 = inv2 * inv2 * inv2;
        sig6 = 1.0;
      }
      const double coef = 24.0 * inv6 * (2.0 * inv6 - sig6) * inv2;
      fxi += coef * dx;
      fyi += coef * dy;
      fzi += coef * dz;
      ei += 4.0 * inv6 * (inv6 - sig6);
    }
    fx[i] = fxi;
    fy[i] = fyi;
    fz[i] = fzi;
    energy += ei;
  }
  return energy;
}

double minimd_reference(const Semantics& semantics, const vm::Workload& w) {
  std::vector<double> px = f64(w, "px"), py = f64(w, "py"), pz = f64(w, "pz");
  std::vector<double> vx = f64(w, "vx"), vy = f64(w, "vy"), vz = f64(w, "vz");
  const long long n = int_arg(w, 14), steps = int_arg(w, 15),
                  nnb = int_arg(w, 16);
  const std::size_t packed = static_cast<std::size_t>(n * nnb);
  std::vector<double> fx(n), fy(n), fz(n);
  std::vector<double> nbx(packed), nby(packed), nbz(packed);
  std::vector<long long> nbidx(packed);
  for (long long i = 0; i < n; ++i) {
    for (long long j = 0; j < nnb; ++j) {
      long long k = i + j + 1;
      if (k >= n) k -= n;
      nbidx[i * nnb + j] = k;
    }
  }
  constexpr double kSoftening = 0.01;
  const double dt = 0.002;
  double energy = 0.0;
  for (long long s = 0; s < steps; ++s) {
    if (s % 10 == 0) {
      for (std::size_t j = 0; j < packed; ++j) {
        nbx[j] = px[nbidx[j]];
        nby[j] = py[nbidx[j]];
        nbz[j] = pz[nbidx[j]];
      }
    }
    energy = md_forces(px, py, pz, fx, fy, fz, nbx, nby, nbz, n, nnb,
                       semantics.reference_kernels);
    double bonded = 0.0;  // bonded_forces
    for (long long i = 0; i < n; ++i) {
      const double xi = px[i], yi = py[i], zi = pz[i];
      for (long long b = 0; b < 4; ++b) {
        const long long k = nbidx[i * nnb + b];
        const double dx = xi - px[k];
        const double dy = yi - py[k];
        const double dz = zi - pz[k];
        const double r = std::sqrt(dx * dx + dy * dy + dz * dz + kSoftening);
        const double stretch = r - 1.0;
        const double coef = stretch / r;
        fx[i] = fx[i] - coef * dx;
        fy[i] = fy[i] - coef * dy;
        fz[i] = fz[i] - coef * dz;
        bonded += 0.5 * stretch * stretch;
      }
    }
    energy = energy + bonded;
    // spread_charges / fft_forward only touch the grid, which never feeds
    // back into the returned energy.
    for (long long i = 0; i < n; ++i) {
      vx[i] = vx[i] + dt * fx[i];
      vy[i] = vy[i] + dt * fy[i];
      vz[i] = vz[i] + dt * fz[i];
    }
    for (long long i = 0; i < n; ++i) {
      px[i] = px[i] + dt * vx[i];
      py[i] = py[i] + dt * vy[i];
      pz[i] = pz[i] + dt * vz[i];
    }
    double temp = 0.0;
    for (long long i = 0; i < n; ++i) temp += vx[i] * vy[i];
    if (semantics.mpi && n > 8) {
      for (long long h = 0; h < 4; ++h) {
        px[h] = px[n - 8 + h];
        py[h] = py[n - 8 + h];
        pz[h] = pz[n - 8 + h];
      }
    }
    energy = energy + temp * 0.0000001;
  }
  return energy;
}

// ---- minilulesh --------------------------------------------------------------

double minilulesh_reference(const Semantics& semantics,
                            const vm::Workload& w) {
  std::vector<double> e = f64(w, "e"), p = f64(w, "p"), v = f64(w, "v"),
                      q = f64(w, "q");
  const long long n = int_arg(w, 4), steps = int_arg(w, 5);
  const double dt = 0.001;
  const double gamma = 1.4;
  const auto exchange = [n](std::vector<double>& field) {
    double checksum = 0.0;
    for (long long h = 0; h < 2; ++h) {
      if (n > 4) {
        field[h] = field[n - 4 + h];
        checksum = checksum + field[h];
      }
    }
    return checksum * 0.0;
  };
  double energy = 0.0;
  for (long long s = 0; s < steps; ++s) {
    for (long long i = 0; i < n; ++i) v[i] = v[i] - dt * (p[i] - q[i]);
    for (long long i = 0; i < n; ++i) {
      const double work = p[i] * v[i] * dt;
      e[i] = std::fmax(e[i] - work, 0.0);
      q[i] = std::fabs(v[i]) * 0.1;
    }
    double total = 0.0;
    for (long long i = 0; i < n; ++i) {
      p[i] = std::fmax((gamma - 1.0) * e[i], 0.0);
      total += e[i];
    }
    energy = total;
    if (semantics.mpi) {
      energy = energy + exchange(e);
      energy = energy + exchange(p);
    }
  }
  return energy;
}

// ---- minillama ---------------------------------------------------------------

double minillama_reference(const Semantics& semantics,
                           const vm::Workload& w) {
  const std::vector<double>& weights = f64(w, "w");
  const std::vector<double>& act = f64(w, "act");
  const long long d = int_arg(w, 4), pp = int_arg(w, 5), tg = int_arg(w, 6);
  std::vector<double> out(d), scores(d);
  constexpr double kScale = 0.0625;
  const auto matmul = [&] {
    double checksum = 0.0;
    for (long long r = 0; r < d; ++r) {
      double acc = 0.0;
      for (long long c = 0; c < d; ++c) {
        const double q = weights[r * d + c];
        double dq;
        if (semantics.reference_kernels) {
          const double block = std::floor(q * 0.25);
          dq = (q - block * 4.0) * kScale - 0.5;
          dq = dq * (1.0 / (1.0 + block * 0.0));
        } else {
          dq = q * kScale - 0.5;
        }
        acc += dq * act[c];
      }
      out[r] = acc;
      checksum += acc;
    }
    return checksum;
  };
  const auto attention = [&] {
    double m = out[0];
    for (long long i = 0; i < d; ++i) m = std::fmax(m, out[i]);
    double z = 0.0;
    for (long long i = 0; i < d; ++i) {
      scores[i] = std::exp((out[i] - m) * 0.125);
      z += scores[i];
    }
    return z;
  };
  double checksum = 0.0;
  for (long long t = 0; t < pp; ++t) checksum = checksum + matmul();
  for (long long t = 0; t < tg; ++t) {
    checksum = checksum + matmul();
    checksum = checksum + attention();
  }
  return checksum;
}

}  // namespace

vm::Workload make_inputs(App app, const Size& size, Rng& rng) {
  switch (app) {
    case App::Minimd: {
      vm::Workload w = apps::minimd_workload(size.md);
      // Atoms on a ring at spacing 1.1 (near the Lennard-Jones minimum)
      // with seeded jitter: index neighbours are spatial neighbours, so
      // every force stays finite and moderate.
      const std::size_t n = static_cast<std::size_t>(size.md.atoms);
      const double radius = 1.1 * static_cast<double>(n) / (2.0 * std::numbers::pi);
      auto& px = w.f64_buffers["px"];
      auto& py = w.f64_buffers["py"];
      auto& pz = w.f64_buffers["pz"];
      for (std::size_t i = 0; i < n; ++i) {
        const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                             static_cast<double>(n);
        px[i] = radius * std::cos(angle) + 0.1 * (rng.uniform() - 0.5);
        py[i] = radius * std::sin(angle) + 0.1 * (rng.uniform() - 0.5);
        pz[i] = 0.1 * (rng.uniform() - 0.5);
      }
      for (const char* name : {"vx", "vy", "vz"}) {
        fill(w.f64_buffers[name], rng, -0.01, 0.01);
      }
      // Written by the app before it reads them; seeded all the same.
      for (const char* name : {"fx", "fy", "fz", "nbx", "nby", "nbz", "grid"}) {
        fill(w.f64_buffers[name], rng, 0.0, 1.0);
      }
      for (long long& k : w.i64_buffers["nbidx"]) {
        k = static_cast<long long>(rng.next() % n);
      }
      return w;
    }
    case App::Minilulesh: {
      vm::Workload w =
          apps::minilulesh_workload(size.lulesh_elements, size.lulesh_steps);
      fill(w.f64_buffers["e"], rng, 1.0, 2.0);
      w.f64_buffers["e"][w.f64_buffers["e"].size() / 2] += 100.0 * rng.uniform();
      fill(w.f64_buffers["p"], rng, 0.0, 0.4);
      fill(w.f64_buffers["v"], rng, -0.05, 0.05);
      fill(w.f64_buffers["q"], rng, 0.0, 0.01);
      return w;
    }
    case App::Minillama: {
      vm::Workload w = apps::minillama_workload(size.llama);
      for (double& code : w.f64_buffers["w"]) {
        code = static_cast<double>(rng.next() % 16);  // Q4 codes
      }
      fill(w.f64_buffers["act"], rng, 0.0, 1.0);
      fill(w.f64_buffers["out"], rng, 0.0, 1.0);
      fill(w.f64_buffers["scores"], rng, 0.0, 1.0);
      return w;
    }
  }
  throw std::logic_error("unknown app");
}

double native_reference(App app, const Semantics& semantics,
                        const vm::Workload& inputs) {
  switch (app) {
    case App::Minimd: return minimd_reference(semantics, inputs);
    case App::Minilulesh: return minilulesh_reference(semantics, inputs);
    case App::Minillama: return minillama_reference(semantics, inputs);
  }
  throw std::logic_error("unknown app");
}

bool returns_match(double served, double expected) {
  if (!std::isfinite(served) || !std::isfinite(expected)) return false;
  return std::fabs(served - expected) <=
         kReturnRtol * std::fmax(std::fabs(served), std::fabs(expected));
}

}  // namespace perfbench
