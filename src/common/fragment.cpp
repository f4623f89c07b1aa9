#include "common/fragment.h"

#include <utility>

namespace pahoehoe {

Fragment::Fragment(Bytes bytes)
    : buf_(std::make_shared<const Buffer>(Buffer{std::move(bytes), {}})) {}

Fragment Fragment::sealed(Bytes bytes) {
  Fragment fragment(std::move(bytes));
  fragment.digest();
  return fragment;
}

const Bytes& Fragment::bytes() const {
  static const Bytes kEmpty;
  return buf_ != nullptr ? buf_->bytes : kEmpty;
}

const Sha256::Digest& Fragment::hash_once() const {
  if (buf_ == nullptr) {
    static const Sha256::Digest kEmptyDigest = Sha256::hash({});
    return kEmptyDigest;
  }
  buf_->digest = Sha256::hash(buf_->bytes);
  return *buf_->digest;
}

bool operator==(const Fragment& a, const Fragment& b) {
  return a.buf_ == b.buf_ || a.bytes() == b.bytes();
}

}  // namespace pahoehoe
