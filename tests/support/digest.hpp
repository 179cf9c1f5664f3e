// FNV-1a digests for pinning many fingerprints to one committed value.
#pragma once

#include <cstdint>
#include <string>

namespace dampi::test {

/// The FNV-1a offset basis: the digest of nothing.
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// FNV-1a over `fp` plus a terminator, chained from `h`.
inline std::uint64_t digest_step(std::uint64_t h, const std::string& fp) {
  for (const unsigned char ch : fp) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;
  h *= 0x100000001b3ull;
  return h;
}

}  // namespace dampi::test
