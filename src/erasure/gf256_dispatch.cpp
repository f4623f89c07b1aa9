// Runtime kernel selection for gf256::dot_prod, through the shared CPU
// dispatch (common/cpu_dispatch.h): $PAHOEHOE_GF256_KERNEL if set,
// otherwise the widest kernel both compiled in and supported by CPUID.
#include "common/cpu_dispatch.h"
#include "erasure/gf256.h"
#include "erasure/gf256_kernels.h"

namespace pahoehoe::gf256 {
namespace {

cpu_dispatch::Dispatch<detail::DotProdFn>& dispatch() {
  static cpu_dispatch::Dispatch<detail::DotProdFn> d(
      "PAHOEHOE_GF256_KERNEL",
      {{"scalar", &detail::dot_prod_scalar, 0},
       {"ssse3", detail::ssse3_impl(), cpu_dispatch::kSsse3},
       {"avx2", detail::avx2_impl(), cpu_dispatch::kAvx2},
       {"gfni", detail::gfni_impl(),
        cpu_dispatch::kAvx512f | cpu_dispatch::kAvx512bw |
            cpu_dispatch::kGfni}});
  return d;
}

int index(Kernel k) { return static_cast<int>(k); }

}  // namespace

namespace detail {

DotProdFn active_dot_prod() { return dispatch().fn(); }

}  // namespace detail

const char* to_string(Kernel k) { return dispatch().name(index(k)); }

std::optional<Kernel> parse_kernel(std::string_view name) {
  const std::optional<int> k = dispatch().parse(name);
  if (!k.has_value()) return std::nullopt;
  return static_cast<Kernel>(*k);
}

bool kernel_compiled(Kernel k) { return dispatch().compiled(index(k)); }

bool kernel_supported(Kernel k) { return dispatch().supported(index(k)); }

std::vector<Kernel> supported_kernels() {
  std::vector<Kernel> out;
  for (int k : dispatch().supported_kernels()) {
    out.push_back(static_cast<Kernel>(k));
  }
  return out;
}

Kernel best_kernel() { return static_cast<Kernel>(dispatch().best()); }

Kernel active_kernel() { return static_cast<Kernel>(dispatch().active()); }

void force_kernel(Kernel k) { dispatch().force(index(k)); }

void reset_kernel() { dispatch().reset(); }

}  // namespace pahoehoe::gf256
