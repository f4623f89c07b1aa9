#include "erasure/reed_solomon.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/check.h"
#include "erasure/gf256.h"
#include "obs/prof.h"

namespace pahoehoe::erasure {
namespace {

// Wall-clock phase ids carry the active kernel so a profile shows *which*
// mul_acc implementation burned the time. The names are string literals
// selected at scope entry (obs::ProfScope keeps only the pointer); lookup
// runs only when profiling is enabled.
struct KernelPhases {
  const char* by_kernel[gf256::kKernelCount];
};

constexpr KernelPhases kEncodePhase = {
    {"rs_encode[scalar]", "rs_encode[ssse3]", "rs_encode[avx2]"}};
constexpr KernelPhases kDecodePhase = {
    {"rs_decode[scalar]", "rs_decode[ssse3]", "rs_decode[avx2]"}};
constexpr KernelPhases kRegeneratePhase = {
    {"rs_regenerate[scalar]", "rs_regenerate[ssse3]", "rs_regenerate[avx2]"}};

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

// Row-major product of the selected matrix rows against whole fragments:
// out[r] = sum_j m(rows[r], j) * inputs[j]. Every encode/decode/regenerate
// funnels through this loop, so the gf256 kernel dispatch (scalar / SSSE3 /
// AVX2, bit-exact by contract) covers all of them. mul_acc itself takes the
// coefficient 0 (skip) and 1 (XOR) fast paths — with a systematic matrix the
// identity rows reduce to a single copy-by-XOR.
std::vector<Bytes> multiply_rows(const Matrix& m, const std::vector<int>& rows,
                                 const std::vector<const Bytes*>& inputs,
                                 size_t frag_size) {
  std::vector<Bytes> out;
  out.reserve(rows.size());
  for (int r : rows) {
    Bytes acc(frag_size, 0);
    for (size_t j = 0; j < inputs.size(); ++j) {
      gf256::mul_acc(acc, *inputs[j], m.at(r, static_cast<int>(j)));
    }
    out.push_back(std::move(acc));
  }
  return out;
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

  // Data fragments: stripe the value, zero-padding the tail. An empty value
  // yields n zero-length fragments (frag_size == 0).
  for (int i = 0; i < k_; ++i) {
    Bytes frag(frag_size, 0);
    const size_t offset = static_cast<size_t>(i) * frag_size;
    if (offset < value.size()) {
      const size_t take = std::min(frag_size, value.size() - offset);
      std::memcpy(frag.data(), value.data() + offset, take);
    }
    fragments[static_cast<size_t>(i)] = std::move(frag);
  }

  // Parity fragments: rows k..n-1 of the encode matrix over the data rows.
  std::vector<const Bytes*> data;
  data.reserve(static_cast<size_t>(k_));
  for (int j = 0; j < k_; ++j) data.push_back(&fragments[static_cast<size_t>(j)]);
  std::vector<int> parity_rows;
  parity_rows.reserve(static_cast<size_t>(n_ - k_));
  for (int i = k_; i < n_; ++i) parity_rows.push_back(i);
  std::vector<Bytes> parity =
      multiply_rows(encode_matrix_, parity_rows, data, frag_size);
  for (size_t i = 0; i < parity.size(); ++i) {
    fragments[static_cast<size_t>(k_) + i] = std::move(parity[i]);
  }
  return fragments;
}

std::vector<Bytes> ReedSolomon::recover_data_fragments(
    const std::vector<IndexedFragment>& fragments, size_t frag_size) const {
  PAHOEHOE_CHECK_MSG(fragments.size() >= static_cast<size_t>(k_),
                     "need at least k fragments to decode");

  // Use the first k distinct indices supplied.
  std::vector<int> indices;
  std::vector<const Bytes*> data;
  for (const auto& f : fragments) {
    if (std::find(indices.begin(), indices.end(), f.index) != indices.end()) {
      continue;
    }
    PAHOEHOE_CHECK(f.index >= 0 && f.index < n_ && f.data != nullptr);
    PAHOEHOE_CHECK_MSG(f.data->size() == frag_size,
                       "fragment size mismatch");
    indices.push_back(f.index);
    data.push_back(f.data);
    if (indices.size() == static_cast<size_t>(k_)) break;
  }
  PAHOEHOE_CHECK_MSG(indices.size() == static_cast<size_t>(k_),
                     "need k distinct fragment indices to decode");

  // The code is systematic, so data row r is fragment r itself: copy the
  // data fragments supplied and multiply only the rows that are missing.
  std::vector<Bytes> out(static_cast<size_t>(k_));
  std::vector<int> missing;
  missing.reserve(static_cast<size_t>(k_));
  for (int r = 0; r < k_; ++r) {
    const auto held = std::find(indices.begin(), indices.end(), r);
    if (held == indices.end()) {
      missing.push_back(r);
    } else {
      out[static_cast<size_t>(r)] = *data[static_cast<size_t>(
          std::distance(indices.begin(), held))];
    }
  }
  if (missing.empty()) return out;
  const Matrix decode = encode_matrix_.select_rows(indices).inverted();
  std::vector<Bytes> decoded = multiply_rows(decode, missing, data, frag_size);
  for (size_t i = 0; i < missing.size(); ++i) {
    out[static_cast<size_t>(missing[i])] = std::move(decoded[i]);
  }
  return out;
}

Bytes ReedSolomon::decode(const std::vector<IndexedFragment>& fragments,
                          size_t value_size) const {
  // lint:prof-ok(kernel_phase returns a pointer into a static name table)
  obs::ProfScope prof(kernel_phase(kDecodePhase));
  const size_t frag_size = fragment_size(value_size);
  if (value_size == 0) return {};
  std::vector<Bytes> data_frags = recover_data_fragments(fragments, frag_size);

  Bytes value(value_size);
  for (int i = 0; i < k_; ++i) {
    const size_t offset = static_cast<size_t>(i) * frag_size;
    if (offset >= value_size) break;
    const size_t take = std::min(frag_size, value_size - offset);
    std::memcpy(value.data() + offset,
                data_frags[static_cast<size_t>(i)].data(), take);
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
  if (frag_size == 0) {
    return std::vector<Bytes>(target_indices.size(), Bytes{});
  }
  std::vector<Bytes> data_frags = recover_data_fragments(available, frag_size);
  std::vector<const Bytes*> data;
  data.reserve(data_frags.size());
  for (const Bytes& f : data_frags) data.push_back(&f);
  for (int target : target_indices) {
    PAHOEHOE_CHECK(target >= 0 && target < n_);
  }
  return multiply_rows(encode_matrix_, target_indices, data, frag_size);
}

}  // namespace pahoehoe::erasure
