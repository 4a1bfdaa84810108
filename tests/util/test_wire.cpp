/**
 * @file
 * Tests for the exact-size helpers of util/wire.hpp: varintSize()
 * and the raw pointer encoders must agree byte for byte with the
 * string encoders, since fleet snapshot sections are sized first and
 * then written straight through a pointer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/wire.hpp"

namespace quetzal {
namespace util {
namespace {

TEST(Wire, VarintSizeMatchesPutVarintAtEveryWidth)
{
    for (int bits = 0; bits <= 64; ++bits) {
        const std::uint64_t top = bits == 64
            ? std::numeric_limits<std::uint64_t>::max()
            : (std::uint64_t{1} << bits) - 1;
        for (const std::uint64_t value : {top, top + 1}) {
            std::string out;
            wire::putVarint(out, value);
            EXPECT_EQ(wire::varintSize(value), out.size()) << value;

            char raw[10];
            char *end = wire::putVarintRaw(raw, value);
            EXPECT_EQ(std::string(raw, end), out) << value;
        }
    }
}

TEST(Wire, RawFixed32MatchesPutFixed32)
{
    for (const std::uint32_t value :
         {0u, 1u, 0x80u, 0x12345678u, 0xFFFFFFFFu}) {
        std::string out;
        wire::putFixed32(out, value);
        char raw[4];
        char *end = wire::putFixed32Raw(raw, value);
        EXPECT_EQ(std::string(raw, end), out) << value;
    }
}

} // namespace
} // namespace util
} // namespace quetzal
