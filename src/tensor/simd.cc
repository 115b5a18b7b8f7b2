// Runtime SIMD dispatch. The level is resolved exactly once (CPUID plus the
// GRIMP_SIMD env knob) and stored as one atomic table pointer; every kernel
// call site does a single relaxed load. SetSimdLevel swaps the pointer
// between kernel invocations (tests, benchmarks).

#include "tensor/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/metrics.h"

namespace grimp {
namespace simd {

// Defined in simd_avx2.cc; returns null when that TU was built without
// AVX2+FMA support in the toolchain.
const KernelTable* Avx2KernelsImpl();

namespace {

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// Gauges mirror the dispatch state so the selected path shows up in metrics
// dumps next to the gemm counters.
void PublishLevel(SimdLevel level) {
  static Gauge& level_gauge =
      MetricsRegistry::Global().GetGauge("tensor.simd.level");
  static Gauge& avx2_gauge =
      MetricsRegistry::Global().GetGauge("tensor.simd.avx2_supported");
  level_gauge.Set(static_cast<int64_t>(level));
  avx2_gauge.Set(SimdAvx2Supported() ? 1 : 0);
}

const KernelTable* TableFor(SimdLevel level) {
  if (level == SimdLevel::kAvx2) {
    const KernelTable* t = Avx2KernelsImpl();
    if (t != nullptr) return t;
  }
  return ScalarKernels();
}

// Initial resolution: best supported level, downgraded by GRIMP_SIMD.
SimdLevel ResolveFromEnvironment() {
  SimdLevel best =
      SimdAvx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  const char* env = EnvOverrides::Raw(kEnvSimd);
  if (env == nullptr || env[0] == '\0') return best;
  SimdLevel requested;
  bool is_auto = false;
  if (!ParseSimdChoice(env, &requested, &is_auto)) {
    std::fprintf(stderr,
                 "grimp: unknown GRIMP_SIMD=\"%s\" (want auto|avx2|scalar); "
                 "using %s\n",
                 env, SimdLevelName(best));
    return best;
  }
  if (is_auto) return best;
  if (requested > best) {
    std::fprintf(stderr,
                 "grimp: GRIMP_SIMD=%s not supported on this CPU/build; "
                 "falling back to %s\n",
                 SimdLevelName(requested), SimdLevelName(best));
    return best;
  }
  return requested;
}

std::atomic<const KernelTable*> g_table{nullptr};

const KernelTable* ResolveOnce() {
  // Benign race: concurrent first calls resolve the same value.
  const SimdLevel level = ResolveFromEnvironment();
  const KernelTable* t = TableFor(level);
  g_table.store(t, std::memory_order_relaxed);
  PublishLevel(level);
  return t;
}

}  // namespace

const KernelTable& Kernels() {
  const KernelTable* t = g_table.load(std::memory_order_relaxed);
  if (t == nullptr) t = ResolveOnce();
  return *t;
}

const KernelTable* Avx2Kernels() {
  if (!SimdAvx2Supported()) return nullptr;
  return Avx2KernelsImpl();
}

}  // namespace simd

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

bool SimdAvx2Supported() {
  static const bool supported =
      simd::CpuHasAvx2Fma() && simd::Avx2KernelsImpl() != nullptr;
  return supported;
}

SimdLevel ActiveSimdLevel() {
  const simd::KernelTable& t = simd::Kernels();
  return std::strcmp(t.name, "avx2") == 0 ? SimdLevel::kAvx2
                                          : SimdLevel::kScalar;
}

SimdLevel SetSimdLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !SimdAvx2Supported()) {
    level = SimdLevel::kScalar;
  }
  simd::g_table.store(simd::TableFor(level), std::memory_order_relaxed);
  simd::PublishLevel(level);
  return level;
}

bool ParseSimdChoice(const std::string& choice, SimdLevel* level,
                     bool* is_auto) {
  *is_auto = false;
  if (choice == "auto") {
    *is_auto = true;
    *level = SimdAvx2Supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
    return true;
  }
  if (choice == "avx2") {
    *level = SimdLevel::kAvx2;
    return true;
  }
  if (choice == "scalar") {
    *level = SimdLevel::kScalar;
    return true;
  }
  return false;
}

}  // namespace grimp
