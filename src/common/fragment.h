// One erasure-coded fragment's bytes: made once, shared by every holder,
// hashed at most once.
//
// A fragment is made by the proxy's encode or by an FS's regeneration and
// then travels by reference, like BlobSeer's immutable chunks: the proxy's
// resend copy, the message in flight, the FS store, a retrieve reply and a
// recovery's gathered set all hold the same buffer. Nothing writes a buffer
// after it is made. A fault that damages a fragment makes a new buffer
// (copy on write), so no other holder's bytes or digest change.
//
// The buffer memoizes its SHA-256 digest, and only the buffer sets the memo,
// by hashing its own bytes, so a memo always equals the hash of the bytes
// beside it. sealed() and seal_all() hash at once; seal_all() hashes the
// very bytes that become each buffer, as one Sha256::hash_many batch, and
// takes no digest from its caller. Any other buffer (decoded from the wire,
// built by a test, or a damaged copy) is hashed on its first digest().
// Every copy of a Fragment reads the same memo.
//
// The memo is written lazily through a shared, const buffer, so a buffer
// must not be shared across threads. None is: a fragment never leaves the
// run that made it.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/sha256.h"
#include "common/types.h"

namespace pahoehoe {

class Fragment {
 public:
  /// The empty fragment (the paper's ⊥ carries one).
  Fragment() = default;
  /// A fresh buffer, hashed on its first digest().
  explicit Fragment(Bytes bytes);
  /// A buffer hashed now: what a fragment's maker sends and stores.
  static Fragment sealed(Bytes bytes);
  /// Buffers hashed now, together: the fragments of one stripe (a proxy's
  /// encode, an FS's regeneration) have one length, so they hash as one
  /// multi-buffer batch.
  static std::vector<Fragment> seal_all(std::vector<Bytes> stripe);

  const Bytes& bytes() const;
  size_t size() const { return bytes().size(); }
  bool empty() const { return size() == 0; }

  /// SHA-256 of the bytes, computed at most once per buffer. Integrity
  /// checks call it per message, so reading the memo is inline.
  const Sha256::Digest& digest() const {
    if (buf_ != nullptr && buf_->digest.has_value()) return *buf_->digest;
    return hash_once();
  }

  /// Byte equality (two holders of one buffer are trivially equal).
  friend bool operator==(const Fragment& a, const Fragment& b);

 private:
  struct Buffer {
    Bytes bytes;
    mutable std::optional<Sha256::Digest> digest;
  };

  /// Compute and memoize the digest (the empty fragment's is a constant).
  const Sha256::Digest& hash_once() const;

  std::shared_ptr<const Buffer> buf_;
};

}  // namespace pahoehoe
