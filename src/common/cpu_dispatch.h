// Runtime selection among the bit-exact kernels of one family (the GF(2^8)
// dot product, the SHA-256 block compressors).
//
// A family lists its kernels narrowest first; kernel 0 is the portable
// scalar reference, always compiled in and supported. The choice is made
// once, when the family's Dispatch is constructed: `$env_var` if set
// (`auto` or a kernel name; an unknown or unavailable name warns on stderr
// and falls back), otherwise the widest kernel that is both compiled in
// (per-file ISA flags, checked by CMake) and supported by CPUID. It is
// installed in an atomic pointer (a function, or a table of a family's
// entry points) that the hot path reads relaxed: any published value is a
// valid, bit-exact kernel, so no ordering is needed. force/reset reinstall
// it for tests and benches; they must not race with concurrent callers of
// the kernel, which is fine for their use (set once before a sweep, or
// between measurement sections).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

namespace pahoehoe::cpu_dispatch {

/// x86 features a kernel may need, as bit flags.
enum Feature : uint32_t {
  kSsse3 = 1u << 0,
  kSse41 = 1u << 1,
  kAvx2 = 1u << 2,
  kSha = 1u << 3,
  kAvx512f = 1u << 4,
  kAvx512bw = 1u << 5,
  kGfni = 1u << 6,
};

/// True iff the CPU has every feature in `features`. Off x86 only the
/// empty set is supported.
bool cpu_has(uint32_t features);

/// The untyped half of a Dispatch: each kernel's name and standing on this
/// host, and the start-up choice among them.
class KernelSet {
 public:
  int size() const { return static_cast<int>(entries_.size()); }
  const char* name(int k) const;
  /// Index of the kernel called `name`; nullopt for anything else,
  /// including "auto".
  std::optional<int> parse(std::string_view name) const;
  bool compiled(int k) const;
  /// Compiled in AND supported by this CPU.
  bool supported(int k) const;
  /// Every supported kernel, narrowest (scalar) first.
  std::vector<int> supported_kernels() const;
  /// The widest supported kernel: what auto-selection picks.
  int best() const;

 protected:
  struct Entry {
    const char* name;
    bool compiled;
    bool supported;
  };
  KernelSet(const char* env_var, std::vector<Entry> entries);
  /// `$env_var`'s choice, or best() when it is unset, empty or "auto".
  int from_env() const;
  /// Fails a CHECK unless kernel k is supported.
  void check_supported(int k) const;

 private:
  const char* env_var_;
  std::vector<Entry> entries_;
};

template <typename Fn>
class Dispatch : public KernelSet {
 public:
  struct Kernel {
    const char* name;
    Fn fn;              ///< nullptr when the toolchain could not compile it;
                        ///< distinct per kernel
    uint32_t features;  ///< Feature bits the CPU must have
  };

  Dispatch(const char* env_var, std::initializer_list<Kernel> kernels)
      : KernelSet(env_var, entries(kernels)) {
    for (const Kernel& k : kernels) fns_.push_back(k.fn);
    install(from_env());
  }

  /// The installed kernel.
  Fn fn() const { return fn_.load(std::memory_order_relaxed); }

  /// The index of the installed kernel.
  int active() const {
    const Fn f = fn();
    int k = 0;
    while (fns_[static_cast<size_t>(k)] != f) ++k;
    return k;
  }

  /// Install kernel k (must be supported) until reset().
  void force(int k) {
    check_supported(k);
    install(k);
  }

  /// Back to the default choice: `$env_var` if set, else best().
  void reset() { install(from_env()); }

 private:
  static std::vector<Entry> entries(std::initializer_list<Kernel> kernels) {
    std::vector<Entry> out;
    for (const Kernel& k : kernels) {
      out.push_back(Entry{k.name, k.fn != nullptr,
                          k.fn != nullptr && cpu_has(k.features)});
    }
    return out;
  }

  void install(int k) {
    fn_.store(fns_[static_cast<size_t>(k)], std::memory_order_relaxed);
  }

  std::vector<Fn> fns_;
  std::atomic<Fn> fn_{nullptr};
};

}  // namespace pahoehoe::cpu_dispatch
