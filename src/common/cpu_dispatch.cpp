#include "common/cpu_dispatch.h"

#include <cstdio>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/env.h"

namespace pahoehoe::cpu_dispatch {

bool cpu_has(uint32_t features) {
#if defined(__x86_64__) || defined(__i386__)
  return ((features & kSsse3) == 0 || __builtin_cpu_supports("ssse3")) &&
         ((features & kSse41) == 0 || __builtin_cpu_supports("sse4.1")) &&
         ((features & kAvx2) == 0 || __builtin_cpu_supports("avx2")) &&
         ((features & kSha) == 0 || __builtin_cpu_supports("sha")) &&
         ((features & kAvx512f) == 0 || __builtin_cpu_supports("avx512f")) &&
         ((features & kAvx512bw) == 0 || __builtin_cpu_supports("avx512bw")) &&
         ((features & kGfni) == 0 || __builtin_cpu_supports("gfni"));
#else
  return features == 0;
#endif
}

KernelSet::KernelSet(const char* env_var, std::vector<Entry> entries)
    : env_var_(env_var), entries_(std::move(entries)) {
  PAHOEHOE_CHECK_MSG(!entries_.empty() && entries_[0].supported,
                     "kernel 0 must be the portable scalar kernel");
}

const char* KernelSet::name(int k) const {
  return entries_[static_cast<size_t>(k)].name;
}

std::optional<int> KernelSet::parse(std::string_view name) const {
  for (int k = 0; k < size(); ++k) {
    if (name == entries_[static_cast<size_t>(k)].name) return k;
  }
  return std::nullopt;
}

bool KernelSet::compiled(int k) const {
  return entries_[static_cast<size_t>(k)].compiled;
}

bool KernelSet::supported(int k) const {
  return entries_[static_cast<size_t>(k)].supported;
}

std::vector<int> KernelSet::supported_kernels() const {
  std::vector<int> out;
  for (int k = 0; k < size(); ++k) {
    if (supported(k)) out.push_back(k);
  }
  return out;
}

int KernelSet::best() const {
  int k = size() - 1;
  while (k > 0 && !supported(k)) --k;
  return k;
}

int KernelSet::from_env() const {
  const std::optional<std::string> override = env::override_value(env_var_);
  if (!override.has_value() || *override == "auto") return best();
  const std::optional<int> requested = parse(*override);
  if (!requested.has_value()) {
    std::string want;
    for (const Entry& entry : entries_) {
      want += entry.name;
      want += '|';
    }
    want += "auto";
    std::fprintf(stderr, "pahoehoe: unknown %s=\"%s\" (want %s); using %s\n",
                 env_var_, override->c_str(), want.c_str(), name(best()));
    return best();
  }
  if (!supported(*requested)) {
    std::fprintf(stderr,
                 "pahoehoe: %s=%s is not %s on this host; using %s\n",
                 env_var_, override->c_str(),
                 compiled(*requested) ? "supported" : "compiled in",
                 name(best()));
    return best();
  }
  return *requested;
}

void KernelSet::check_supported(int k) const {
  PAHOEHOE_CHECK_MSG(supported(k),
                     "force_kernel: kernel not supported on this host");
}

}  // namespace pahoehoe::cpu_dispatch
