//===- Hash.h - 128-bit content digests ------------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A streaming 128-bit content hasher for cache identities. Components that
/// take part in a kernel's identity (the task registry, the mapping, the
/// machine) digest their content once, when it is built, and keep the
/// digest; a cache key is then a few dozen words of arithmetic over those
/// digests instead of a re-serialization of everything they hold.
///
/// Framing is the caller's job and is always explicit: strings are
/// length-prefixed by str(), and sequences should absorb their element
/// count before their elements, so ("ab", "c") and ("a", "bc") — or one
/// list split differently between two fields — never feed the same word
/// stream.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_HASH_H
#define CYPRESS_SUPPORT_HASH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace cypress {

/// A 128-bit content digest.
using Digest128 = std::array<uint64_t, 2>;

/// Bucket hash for unordered containers keyed by a digest: the words are
/// already fully mixed, so the first one serves as is.
struct Digest128Hash {
  size_t operator()(const Digest128 &D) const {
    return static_cast<size_t>(D[0]);
  }
};

/// Streaming 128-bit hasher over 64-bit words.
///
/// The state is two 64-bit lanes. Absorbing a word runs each lane through
/// the splitmix64 finalizer (a bijection with full avalanche), and the
/// second lane also absorbs the first lane's new value, so for a fixed
/// input word the step is a bijection of the whole 128-bit state: two
/// streams that reach different states stay different while they absorb
/// the same suffix. finish() folds in the word count. The hasher is not
/// cryptographic; on non-adversarial content its digests behave like
/// uniform 128-bit draws, so n distinct contents collide with probability
/// about n^2 / 2^129.
class ContentHasher {
public:
  ContentHasher &word(uint64_t Word) {
    A = mix(A ^ Word);
    B = mix(B ^ Word ^ A);
    ++Words;
    return *this;
  }

  /// Length-prefixed bytes, packed eight to a word.
  ContentHasher &str(std::string_view Bytes) {
    word(Bytes.size());
    size_t I = 0;
    for (; I + 8 <= Bytes.size(); I += 8) {
      uint64_t Chunk;
      std::memcpy(&Chunk, Bytes.data() + I, 8);
      word(Chunk);
    }
    if (I < Bytes.size()) {
      uint64_t Chunk = 0;
      std::memcpy(&Chunk, Bytes.data() + I, Bytes.size() - I);
      word(Chunk);
    }
    return *this;
  }

  ContentHasher &digest(const Digest128 &D) { return word(D[0]).word(D[1]); }

  Digest128 finish() const {
    uint64_t Lo = mix(A ^ Words);
    return {Lo, mix(B ^ Lo)};
  }

private:
  static uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  uint64_t A = 0x243f6a8885a308d3ull; // Digits of pi: any nonzero seeds.
  uint64_t B = 0x13198a2e03707344ull;
  uint64_t Words = 0;
};

} // namespace cypress

#endif // CYPRESS_SUPPORT_HASH_H
