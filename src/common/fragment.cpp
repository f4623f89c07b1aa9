#include "common/fragment.h"

#include <span>
#include <utility>

namespace pahoehoe {

Fragment::Fragment(Bytes bytes)
    : buf_(std::make_shared<const Buffer>(Buffer{std::move(bytes), {}})) {}

Fragment Fragment::sealed(Bytes bytes) {
  Fragment fragment(std::move(bytes));
  fragment.digest();
  return fragment;
}

std::vector<Fragment> Fragment::seal_all(std::vector<Bytes> stripe) {
  std::vector<Fragment> fragments;
  fragments.reserve(stripe.size());
  std::vector<std::span<const uint8_t>> buffers;
  buffers.reserve(stripe.size());
  for (Bytes& bytes : stripe) {
    fragments.emplace_back(std::move(bytes));
    buffers.push_back(fragments.back().bytes());
  }
  std::vector<Sha256::Digest> digests(fragments.size());
  Sha256::hash_many(buffers, digests);
  for (size_t i = 0; i < fragments.size(); ++i) {
    fragments[i].buf_->digest = digests[i];
  }
  return fragments;
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
