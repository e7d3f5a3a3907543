// util::Checksum64 is XXH64: reference vectors at seed 0, alignment
// independence over every tail path (lengths 0-100 cover the 32-byte
// stripe loop, the 8- and 4-byte tails and the byte tail), single-bit
// sensitivity over a whole 4 KiB block (the segment block size), and
// seed sensitivity.
#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "util/random.h"

namespace alex::util {
namespace {

TEST(Checksum64Test, MatchesXxh64ReferenceVectors) {
  EXPECT_EQ(Checksum64("", 0, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Checksum64("a", 1, 0), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Checksum64("abc", 3, 0), 0x44BC2CF5AD770999ULL);
  // A null pointer is fine for an empty span.
  EXPECT_EQ(Checksum64(nullptr, 0, 0), 0xEF46DB3751D8E999ULL);
}

TEST(Checksum64Test, DigestDoesNotDependOnAlignment) {
  Xoshiro256 rng(17);
  std::vector<unsigned char> aligned(128);
  for (auto& byte : aligned) {
    byte = static_cast<unsigned char>(rng.NextUint64(256));
  }
  std::vector<unsigned char> shifted(aligned.size() + 8);
  for (size_t n = 0; n <= 100; ++n) {
    const uint64_t expect = Checksum64(aligned.data(), n, 0);
    for (size_t misalign = 0; misalign < 8; ++misalign) {
      std::memcpy(shifted.data() + misalign, aligned.data(), n);
      EXPECT_EQ(Checksum64(shifted.data() + misalign, n, 0), expect)
          << "n=" << n << " misalign=" << misalign;
    }
  }
}

TEST(Checksum64Test, EverySingleBitFlipOfABlockChangesTheDigest) {
  Xoshiro256 rng(29);
  std::vector<unsigned char> block(4096);
  for (auto& byte : block) {
    byte = static_cast<unsigned char>(rng.NextUint64(256));
  }
  const uint64_t clean = Checksum64(block.data(), block.size(), 0);
  std::set<uint64_t> seen = {clean};
  for (size_t bit = 0; bit < block.size() * 8; ++bit) {
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    const uint64_t flipped = Checksum64(block.data(), block.size(), 0);
    ASSERT_NE(flipped, clean) << "bit " << bit;
    seen.insert(flipped);
    block[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  // No two flips collide either.
  EXPECT_EQ(seen.size(), block.size() * 8 + 1);
  EXPECT_EQ(Checksum64(block.data(), block.size(), 0), clean);
}

TEST(Checksum64Test, SeedChangesTheDigest) {
  const char text[] = "ALEX learned index";
  for (const size_t n : {size_t{0}, size_t{5}, sizeof(text) - 1}) {
    EXPECT_NE(Checksum64(text, n, 0), Checksum64(text, n, 1)) << n;
  }
  std::vector<unsigned char> block(4096, 0x11);
  EXPECT_NE(Checksum64(block.data(), block.size(), 0),
            Checksum64(block.data(), block.size(), 0x9E3779B97F4A7C15ULL));
}

}  // namespace
}  // namespace alex::util
