#include <atomic>
#include <cstdlib>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "tensor/kernels/kernels_internal.hpp"

// Tier resolution. Order of precedence:
//   1. forceTier() (tests / benches pin a tier explicitly)
//   2. DAGT_KERNEL_TIER environment variable ("scalar" | "avx2" | "avx2fma"
//      | "auto"; unknown or unsupported values warn once and fall to auto)
//   3. detectTier() — strongest tier the binary carries AND the CPU runs.
// The env/CPUID resolution happens once; afterwards activeTier() is a single
// relaxed atomic load.

namespace dagt::tensor::kernels {

namespace {

// Canonical tier names, indexed by Tier. dagt-analyze reads these literals
// to drift-check docs/performance.md.
const char* const kTierNames[kTierCount] = {
    "scalar",
    "avx2",
    "avx2fma",
};

constexpr int kTierUnset = -1;

// forceTier() pin (kTierUnset when not pinned) and the cached env/CPUID
// resolution (kTierUnset until first use).
std::atomic<int> gForcedTier{kTierUnset};
std::atomic<int> gResolvedTier{kTierUnset};

Tier resolveFromEnvOrCpu() {
  if (const char* env = std::getenv("DAGT_KERNEL_TIER")) {
    const std::string_view value(env);
    if (!value.empty() && value != "auto") {
      if (const auto parsed = parseTier(value)) {
        if (tierSupported(*parsed)) return *parsed;
        DAGT_WARN << "DAGT_KERNEL_TIER=" << value
                  << " not supported on this machine/build; using auto";
      } else {
        DAGT_WARN << "DAGT_KERNEL_TIER=" << value
                  << " is not a tier (scalar|avx2|avx2fma|auto); using auto";
      }
    }
  }
  return detectTier();
}

}  // namespace

const char* tierName(Tier tier) {
  const int i = static_cast<int>(tier);
  DAGT_DCHECK(i >= 0 && i < kTierCount);
  return kTierNames[i];
}

std::optional<Tier> parseTier(std::string_view name) {
  for (int i = 0; i < kTierCount; ++i) {
    if (name == kTierNames[i]) return static_cast<Tier>(i);
  }
  return std::nullopt;
}

bool tierSupported(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return true;
#if DAGT_SIMD_X86
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx2Fma:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    case Tier::kAvx2:
    case Tier::kAvx2Fma:
      return false;
#endif
  }
  return false;
}

Tier detectTier() {
  if (tierSupported(Tier::kAvx2Fma)) return Tier::kAvx2Fma;
  if (tierSupported(Tier::kAvx2)) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier activeTier() {
  const int forced = gForcedTier.load(std::memory_order_relaxed);
  if (forced != kTierUnset) return static_cast<Tier>(forced);
  int resolved = gResolvedTier.load(std::memory_order_relaxed);
  if (resolved == kTierUnset) {
    // Benign race: concurrent first calls resolve to the same value.
    resolved = static_cast<int>(resolveFromEnvOrCpu());
    gResolvedTier.store(resolved, std::memory_order_relaxed);
  }
  return static_cast<Tier>(resolved);
}

const KernelTable& table(Tier tier) {
  DAGT_DCHECK(tierSupported(tier));
  switch (tier) {
#if DAGT_SIMD_X86
    case Tier::kAvx2:
      return avx2Table();
    case Tier::kAvx2Fma:
      return avx2FmaTable();
#else
    case Tier::kAvx2:
    case Tier::kAvx2Fma:
      break;
#endif
    case Tier::kScalar:
      break;
  }
  return scalarTable();
}

const KernelTable& active() { return table(activeTier()); }

void forceTier(Tier tier) {
  DAGT_CHECK_MSG(tierSupported(tier), "forceTier: tier not supported here");
  gForcedTier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void resetTier() {
  gForcedTier.store(kTierUnset, std::memory_order_relaxed);
}

}  // namespace dagt::tensor::kernels
