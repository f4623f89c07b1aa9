// Systematic Reed-Solomon erasure codec (paper §2).
//
// A value is striped across the first k "data" fragments; the remaining
// m = n - k "parity" fragments are GF(2^8) linear combinations chosen so any
// k of the n fragments recover the value. The encode matrix is a Vandermonde
// matrix transformed to systematic form (top k×k = identity), which keeps
// every k-row submatrix invertible.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "erasure/matrix.h"

namespace pahoehoe::erasure {

/// One recovered-or-supplied fragment for decode/regenerate.
struct IndexedFragment {
  int index = -1;     ///< fragment index in [0, n)
  const Bytes* data = nullptr;
};

class ReedSolomon {
 public:
  /// Requires 1 ≤ k ≤ n ≤ 255.
  ReedSolomon(int k, int n);

  int k() const { return k_; }
  int n() const { return n_; }

  /// Size of each fragment for a value of `value_size` bytes:
  /// ceil(value_size / k); the last data fragment is zero-padded.
  /// An empty value yields zero-length fragments.
  size_t fragment_size(size_t value_size) const;

  /// Encode a value into n fragments (indices 0..n-1).
  std::vector<Bytes> encode(const Bytes& value) const;

  /// Recover the original value from any k distinct fragments.
  /// `value_size` is the original length (carried in object metadata).
  Bytes decode(const std::vector<IndexedFragment>& fragments,
               size_t value_size) const;

  /// Regenerate the fragments at `target_indices` from any k distinct
  /// available fragments, without materializing the full value.
  std::vector<Bytes> regenerate(const std::vector<IndexedFragment>& available,
                                const std::vector<int>& target_indices,
                                size_t value_size) const;

  /// Same, sized by the fragment length directly. Fragment regeneration
  /// operates stripe-wise and never needs the original value length, so a
  /// repairing server that has fragments but no size metadata can still
  /// rebuild siblings bit-exactly.
  std::vector<Bytes> regenerate_sized(
      const std::vector<IndexedFragment>& available,
      const std::vector<int>& target_indices, size_t frag_size) const;

  /// The n×k systematic encode matrix (exposed for tests).
  const Matrix& encode_matrix() const { return encode_matrix_; }

 private:
  int k_;
  int n_;
  Matrix encode_matrix_;
};

}  // namespace pahoehoe::erasure
