#include "erasure/reed_solomon.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "common/check.h"
#include "erasure/gf256.h"
#include "obs/prof.h"

namespace pahoehoe::erasure {
namespace {

// Wall-clock phase ids carry the active kernel so a profile shows *which*
// dot_prod implementation burned the time. The names are string literals
// selected at scope entry (obs::ProfScope keeps only the pointer); lookup
// runs only when profiling is enabled.
struct KernelPhases {
  const char* by_kernel[gf256::kKernelCount];
};

constexpr KernelPhases kEncodePhase = {{"rs_encode[scalar]", "rs_encode[ssse3]",
                                        "rs_encode[avx2]", "rs_encode[gfni]"}};
constexpr KernelPhases kDecodePhase = {{"rs_decode[scalar]", "rs_decode[ssse3]",
                                        "rs_decode[avx2]", "rs_decode[gfni]"}};
constexpr KernelPhases kRegeneratePhase = {
    {"rs_regenerate[scalar]", "rs_regenerate[ssse3]", "rs_regenerate[avx2]",
     "rs_regenerate[gfni]"}};

const char* kernel_phase(const KernelPhases& phases) {
  if (!obs::prof::enabled()) return nullptr;
  return phases.by_kernel[static_cast<int>(gf256::active_kernel())];
}

// Vandermonde-to-systematic transform: V (n×k) times inverse(top k×k of V)
// leaves the top k rows as identity while preserving the property that any
// k rows form an invertible matrix (row operations on the right factor do
// not change row-subset independence).
Matrix build_systematic_matrix(int k, int n) {
  Matrix v = Matrix::vandermonde(n, k);
  std::vector<int> top(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) top[static_cast<size_t>(i)] = i;
  Matrix top_inv = v.select_rows(top).inverted();
  return v.multiply(top_inv);
}

// The first k distinct fragments supplied, which decode and regeneration
// read: their indices, and their bytes in the same order.
struct Held {
  std::vector<int> indices;
  std::vector<const uint8_t*> data;
};

Held select_k(const std::vector<IndexedFragment>& fragments, int k, int n,
              size_t frag_size) {
  PAHOEHOE_CHECK_MSG(fragments.size() >= static_cast<size_t>(k),
                     "need at least k fragments to decode");
  Held held;
  for (const auto& f : fragments) {
    if (std::find(held.indices.begin(), held.indices.end(), f.index) !=
        held.indices.end()) {
      continue;
    }
    PAHOEHOE_CHECK(f.index >= 0 && f.index < n && f.data != nullptr);
    PAHOEHOE_CHECK_MSG(f.data->size() == frag_size,
                       "fragment size mismatch");
    held.indices.push_back(f.index);
    held.data.push_back(f.data->data());
    if (held.indices.size() == static_cast<size_t>(k)) break;
  }
  PAHOEHOE_CHECK_MSG(held.indices.size() == static_cast<size_t>(k),
                     "need k distinct fragment indices to decode");
  return held;
}

}  // namespace

ReedSolomon::ReedSolomon(int k, int n)
    : k_(k), n_(n), encode_matrix_(build_systematic_matrix(k, n)) {
  PAHOEHOE_CHECK_MSG(k >= 1 && k <= n && n <= 255,
                     "ReedSolomon requires 1 <= k <= n <= 255");
}

size_t ReedSolomon::fragment_size(size_t value_size) const {
  return (value_size + static_cast<size_t>(k_) - 1) /
         static_cast<size_t>(k_);
}

std::vector<Bytes> ReedSolomon::encode(const Bytes& value) const {
  // lint:prof-ok(kernel_phase returns a pointer into a static name table)
  obs::ProfScope prof(kernel_phase(kEncodePhase));
  const size_t frag_size = fragment_size(value.size());
  std::vector<Bytes> fragments(static_cast<size_t>(n_));

  // Data fragments: each is one copy of its slice of the value, and only
  // the zero pad past the value's end is filled. An empty value yields n
  // zero-length fragments (frag_size == 0).
  for (int i = 0; i < k_; ++i) {
    Bytes& frag = fragments[static_cast<size_t>(i)];
    const size_t offset =
        std::min(static_cast<size_t>(i) * frag_size, value.size());
    const size_t take = std::min(frag_size, value.size() - offset);
    frag.reserve(frag_size);
    frag.assign(value.begin() + static_cast<std::ptrdiff_t>(offset),
                value.begin() + static_cast<std::ptrdiff_t>(offset + take));
    frag.resize(frag_size);
  }

  // Parity fragments: rows k..n-1 of the encode matrix over the data
  // fragments, all in one dot product. The pointer lists are allocated
  // between the data and parity buffers on purpose: freed first, they keep
  // the freed data buffers from merging into the heap top, which glibc
  // trims, so the next encode does not fault those pages in again (18
  // page faults per (4, 12) encode of 100 KiB instead of 43).
  std::vector<const uint8_t*> data;
  data.reserve(static_cast<size_t>(k_));
  for (int i = 0; i < k_; ++i) {
    data.push_back(fragments[static_cast<size_t>(i)].data());
  }
  std::vector<uint8_t*> parity;
  parity.reserve(static_cast<size_t>(n_ - k_));
  for (int i = k_; i < n_; ++i) {
    Bytes& frag = fragments[static_cast<size_t>(i)];
    frag.resize(frag_size);
    parity.push_back(frag.data());
  }
  gf256::dot_prod(encode_matrix_.data().subspan(static_cast<size_t>(k_) *
                                                static_cast<size_t>(k_)),
                  data, parity, frag_size);
  return fragments;
}

Bytes ReedSolomon::decode(const std::vector<IndexedFragment>& fragments,
                          size_t value_size) const {
  // lint:prof-ok(kernel_phase returns a pointer into a static name table)
  obs::ProfScope prof(kernel_phase(kDecodePhase));
  if (value_size == 0) return {};
  const size_t frag_size = fragment_size(value_size);
  const Held held = select_k(fragments, k_, n_, frag_size);

  // The code is systematic, so data row r is fragment r itself. The value
  // is built in row order: a held data fragment is copied straight in, and
  // a missing row's slice is made room for and left to the dot product
  // below. A missing short last row goes through one full-length row instead.
  Bytes value;
  value.reserve(value_size);
  std::vector<int> missing;
  std::vector<uint8_t*> outputs;
  Bytes short_row;
  for (int r = 0; r < k_ && value.size() < value_size; ++r) {
    const size_t offset = value.size();
    const size_t take = std::min(frag_size, value_size - offset);
    const auto it = std::find(held.indices.begin(), held.indices.end(), r);
    if (it != held.indices.end()) {
      const uint8_t* frag = held.data[static_cast<size_t>(
          std::distance(held.indices.begin(), it))];
      value.insert(value.end(), frag, frag + take);
      continue;
    }
    value.resize(offset + take);
    if (take < frag_size) short_row.resize(frag_size);
    missing.push_back(r);
    outputs.push_back(take < frag_size ? short_row.data()
                                       : value.data() + offset);
  }
  if (missing.empty()) return value;

  // Row r of the inverse of the held rows rebuilds data row r from the
  // held fragments.
  const Matrix rows =
      encode_matrix_.select_rows(held.indices).inverted().select_rows(missing);
  gf256::dot_prod(rows.data(), held.data, outputs, frag_size);
  if (!short_row.empty()) {
    const size_t offset = static_cast<size_t>(missing.back()) * frag_size;
    std::memcpy(value.data() + offset, short_row.data(), value_size - offset);
  }
  return value;
}

std::vector<Bytes> ReedSolomon::regenerate(
    const std::vector<IndexedFragment>& available,
    const std::vector<int>& target_indices, size_t value_size) const {
  return regenerate_sized(available, target_indices,
                          fragment_size(value_size));
}

std::vector<Bytes> ReedSolomon::regenerate_sized(
    const std::vector<IndexedFragment>& available,
    const std::vector<int>& target_indices, size_t frag_size) const {
  // lint:prof-ok(kernel_phase returns a pointer into a static name table)
  obs::ProfScope prof(kernel_phase(kRegeneratePhase));
  std::vector<Bytes> out(target_indices.size());
  if (frag_size == 0) return out;
  const Held held = select_k(available, k_, n_, frag_size);
  for (int target : target_indices) {
    PAHOEHOE_CHECK(target >= 0 && target < n_);
  }

  // The target rows of the encode matrix times the inverse of the held
  // rows: one matrix from the held fragments straight to the targets, so
  // the data rows are never materialized.
  const Matrix composed = encode_matrix_.select_rows(target_indices)
                              .multiply(encode_matrix_.select_rows(held.indices)
                                            .inverted());
  std::vector<uint8_t*> outputs;
  outputs.reserve(out.size());
  for (Bytes& frag : out) {
    frag.resize(frag_size);
    outputs.push_back(frag.data());
  }
  gf256::dot_prod(composed.data(), held.data, outputs, frag_size);
  return out;
}

}  // namespace pahoehoe::erasure
