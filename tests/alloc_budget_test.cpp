// Heap allocations per message and bytes hashed per put: deterministic work
// counters, gated exactly on any host.
//
// This executable replaces the global operator new/delete with versions
// that count calls and forward to malloc/free, and links with
// `--wrap` for both SHA-256 entry points, Sha256::hash and
// Sha256::hash_many (tests/CMakeLists.txt), so every call into them from
// another translation unit passes through a counting wrapper; the library
// itself carries no counter. Both count only while counting is on:
// around a core::run_experiment, or a unit test's few calls. The simulated
// run is deterministic, so the counts repeat exactly for a given build; the
// allocation budgets leave headroom only for library differences between
// toolchains, and the hash count has none.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>

#include "common/fragment.h"
#include "common/sha256.h"
#include "core/harness.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<uint64_t> g_hash_calls{0};
std::atomic<uint64_t> g_batch_calls{0};
std::atomic<uint64_t> g_batch_inputs{0};
std::atomic<uint64_t> g_hashed_bytes{0};

void count(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* counted_malloc(std::size_t size) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  count(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Not inlined, so the compiler does not pair an inlined free() with the
// replaced operator new and warn of a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return or_throw(counted_malloc(size)); }
void* operator new[](std::size_t size) {
  return or_throw(counted_malloc(size));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return or_throw(counted_aligned(size, align));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

// The ld --wrap pair for Sha256::hash, a static member: the linker binds
// callers to __wrap_<symbol> and __real_<symbol> to the library's own.
#define PAHOEHOE_SHA256_HASH \
  "_ZN8pahoehoe6Sha2564hashESt4spanIKhLm18446744073709551615EE"
pahoehoe::Sha256::Digest real_sha256_hash(std::span<const uint8_t> data)
    __asm__("__real_" PAHOEHOE_SHA256_HASH);
pahoehoe::Sha256::Digest wrap_sha256_hash(std::span<const uint8_t> data)
    __asm__("__wrap_" PAHOEHOE_SHA256_HASH);
pahoehoe::Sha256::Digest wrap_sha256_hash(std::span<const uint8_t> data) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_hash_calls.fetch_add(1, std::memory_order_relaxed);
    g_hashed_bytes.fetch_add(data.size(), std::memory_order_relaxed);
  }
  return real_sha256_hash(data);
}

// The same for the batch entry, Sha256::hash_many.
#define PAHOEHOE_SHA256_HASH_MANY                                     \
  "_ZN8pahoehoe6Sha2569hash_manyESt4spanIKS1_IKhLm18446744073709551615" \
  "EELm18446744073709551615EES1_ISt5arrayIhLm32EELm18446744073709551615EE"
using Inputs = std::span<const std::span<const uint8_t>>;
using Digests = std::span<pahoehoe::Sha256::Digest>;
void real_sha256_hash_many(Inputs inputs, Digests digests)
    __asm__("__real_" PAHOEHOE_SHA256_HASH_MANY);
void wrap_sha256_hash_many(Inputs inputs, Digests digests)
    __asm__("__wrap_" PAHOEHOE_SHA256_HASH_MANY);
void wrap_sha256_hash_many(Inputs inputs, Digests digests) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_batch_calls.fetch_add(1, std::memory_order_relaxed);
    g_batch_inputs.fetch_add(inputs.size(), std::memory_order_relaxed);
    for (const std::span<const uint8_t>& input : inputs) {
      g_hashed_bytes.fetch_add(input.size(), std::memory_order_relaxed);
    }
  }
  real_sha256_hash_many(inputs, digests);
}

namespace pahoehoe::core {
namespace {

struct Counted {
  RunResult result;
  uint64_t allocations = 0;
  uint64_t bytes = 0;
  uint64_t hashed_bytes = 0;
  uint64_t batch_calls = 0;
  uint64_t batch_inputs = 0;
};

void start_counting() {
  g_allocations.store(0);
  g_bytes.store(0);
  g_hash_calls.store(0);
  g_batch_calls.store(0);
  g_batch_inputs.store(0);
  g_hashed_bytes.store(0);
  g_counting.store(true);
}

Counted run_counted(const RunConfig& config) {
  start_counting();
  RunResult result = run_experiment(config);
  g_counting.store(false);
  return Counted{std::move(result),     g_allocations.load(),
                 g_bytes.load(),        g_hashed_bytes.load(),
                 g_batch_calls.load(),  g_batch_inputs.load()};
}

RunConfig all_opts(int puts, size_t value_size) {
  RunConfig config = paper_default_config();
  config.convergence = ConvergenceOptions::all_opts();
  config.workload.num_puts = puts;
  config.workload.value_size = value_size;
  config.seed = 7;
  return config;
}

// The FS outage backlog: every put leaves convergence work for the two
// blacked-out FSs, so the run is hundreds of small messages per put.
TEST(AllocBudgetTest, BacklogAllocatesAboutOncePerMessage) {
  RunConfig config = all_opts(100, 1024);
  const SimTime hour = 60 * 60 * kMicrosPerSecond;
  config.faults = {FaultSpec::fs_blackout(0, 0, 0, hour),
                   FaultSpec::fs_blackout(1, 0, 0, hour)};
  const Counted run = run_counted(config);
  ASSERT_TRUE(run.result.audit.passed()) << run.result.audit.to_string();
  const uint64_t sent = run.result.stats.total_sent_count();
  ASSERT_GT(sent, 100u * 400u);
  const double per_message =
      static_cast<double>(run.allocations) / static_cast<double>(sent);
  std::printf("backlog: %llu allocations / %llu messages = %.3f\n",
              static_cast<unsigned long long>(run.allocations),
              static_cast<unsigned long long>(sent), per_message);
  // A message travels as a value, so its one allocation is the copy of its
  // Metadata::locs that the sender puts in it (messages without metadata
  // allocate nothing); the rest is the protocol state a message creates.
  // A second copy of any per-message buffer costs about one more. Pinned
  // at the measured 1.416 with 10% headroom.
  EXPECT_LE(per_message, 1.55);
}

// Failure-free 100 KiB puts. Each fragment is made once, by the proxy's
// encode, and every holder after it shares that buffer: the store request
// and its resend, the message in flight, the FS store. What a put allocates
// is the value, the RS encode's n fragments (12 × 25 KiB), one buffer
// header per fragment, and the metadata copies and protocol state of its
// messages. Pinned at the measured counts with 10% headroom; copying each
// fragment an FS receives (12 stores and the 6 re-sends of a put) more than
// doubles the bytes.
TEST(AllocBudgetTest, FailureFreeLargePutsAllocationsPerPut) {
  constexpr double kAllocationsPerPut = 211.4;
  constexpr double kKibPerPut = 420.5;
  const int puts = 20;
  const Counted run = run_counted(all_opts(puts, 100 * 1024));
  ASSERT_TRUE(run.result.audit.passed()) << run.result.audit.to_string();
  ASSERT_EQ(run.result.puts_attempted, puts);
  const double per_put =
      static_cast<double>(run.allocations) / static_cast<double>(puts);
  const double kib_per_put =
      static_cast<double>(run.bytes) / 1024.0 / static_cast<double>(puts);
  std::printf("large puts: %llu allocations / %d puts = %.1f, %.1f KiB\n",
              static_cast<unsigned long long>(run.allocations), puts,
              per_put, kib_per_put);
  EXPECT_LE(per_put, kAllocationsPerPut * 1.1);
  EXPECT_LE(kib_per_put, kKibPerPut * 1.1);
}

// The hashed-once gate. The proxy seals the n fragments it encodes as one
// batch, hashing each once; an FS's receipt check and every later
// integrity check read that buffer's memo. So failure-free 100 KiB puts
// hash the n fragments of each value and nothing else: (n / k) = 3.0 bytes
// per user byte at (4, 12), where re-hashing at receipt would make it 6.0.
// The bytes are counted at both entry points, and each put makes exactly
// one n-input batch call.
TEST(HashBudgetTest, FailureFreeLargePutsHashEachFragmentOnce) {
  const int puts = 20;
  const size_t value_size = 100 * 1024;
  const Counted run = run_counted(all_opts(puts, value_size));
  ASSERT_TRUE(run.result.audit.passed()) << run.result.audit.to_string();
  ASSERT_EQ(run.result.puts_attempted, puts);
  const uint64_t user_bytes = uint64_t{value_size} * puts;
  std::printf("large puts: %llu bytes hashed / %llu user bytes = %.3f\n",
              static_cast<unsigned long long>(run.hashed_bytes),
              static_cast<unsigned long long>(user_bytes),
              static_cast<double>(run.hashed_bytes) /
                  static_cast<double>(user_bytes));
  std::printf("large puts: %llu hash_many calls, %llu inputs\n",
              static_cast<unsigned long long>(run.batch_calls),
              static_cast<unsigned long long>(run.batch_inputs));
  const Policy policy;
  const uint64_t fragment_bytes = (value_size + policy.k - 1) / policy.k;
  EXPECT_EQ(run.hashed_bytes, fragment_bytes * policy.n * puts);
  EXPECT_EQ(run.batch_calls, uint64_t{puts});
  EXPECT_EQ(run.batch_inputs, uint64_t{policy.n} * puts);
}

TEST(HashBudgetTest, CopiesOfABufferShareOneDigest) {
  const Bytes bytes(4096, 0x3c);
  start_counting();
  const Fragment fresh(bytes);
  const Fragment copy = fresh;
  EXPECT_EQ(g_hash_calls.load(), 0u) << "a fresh buffer is hashed lazily";
  EXPECT_EQ(copy.digest(), Sha256::hash(bytes));
  EXPECT_EQ(g_hash_calls.load(), 2u);  // the copy's digest, and the oracle
  EXPECT_EQ(fresh.digest(), copy.digest());
  Fragment later = copy;
  EXPECT_EQ(later.digest(), copy.digest());
  EXPECT_EQ(g_hash_calls.load(), 2u) << "every copy reads the one memo";

  const Fragment sealed = Fragment::sealed(bytes);
  EXPECT_EQ(g_hash_calls.load(), 3u) << "sealing hashes at once";
  EXPECT_EQ(Fragment(sealed).digest(), fresh.digest());
  EXPECT_EQ(g_hash_calls.load(), 3u);
  g_counting.store(false);
  EXPECT_EQ(g_hashed_bytes.load(), 3 * bytes.size());
}

TEST(HashBudgetTest, SealAllHashesAStripeInOneBatch) {
  const Bytes bytes(4096, 0x3c);
  start_counting();
  const std::vector<Fragment> stripe =
      Fragment::seal_all(std::vector<Bytes>(12, bytes));
  EXPECT_EQ(g_batch_calls.load(), 1u);
  EXPECT_EQ(g_batch_inputs.load(), 12u);
  for (const Fragment& fragment : stripe) {
    EXPECT_EQ(fragment.bytes(), bytes);
    EXPECT_EQ(fragment.digest(), stripe[0].digest()) << "read from the memo";
  }
  EXPECT_EQ(g_hash_calls.load(), 0u) << "no fragment is hashed twice";
  g_counting.store(false);
  EXPECT_EQ(g_hashed_bytes.load(), 12 * bytes.size());
  EXPECT_EQ(stripe[0].digest(), Sha256::hash(bytes));
}

}  // namespace
}  // namespace pahoehoe::core
