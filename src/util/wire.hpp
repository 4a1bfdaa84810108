/**
 * @file
 * Byte-level wire primitives shared by the binary trace format
 * (obs/btrace.hpp) and the simulator checkpoint archive
 * (sim/checkpoint.hpp): LEB128 varints, zigzag signed mapping,
 * little-endian fixed-width scalars, bit-exact doubles, and CRC32.
 *
 * Everything here is a pure function of its inputs — no locale, no
 * platform formatting, no pointer values — so wire bytes are
 * identical across runs, thread counts and hosts. Doubles travel as
 * their raw IEEE-754 bit pattern (fixed64), which round-trips
 * exactly where decimal formatting would have to prove shortest-
 * round-trip properties.
 */

#ifndef QUETZAL_UTIL_WIRE_HPP
#define QUETZAL_UTIL_WIRE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define QUETZAL_WIRE_X86_CRC 1
#endif

namespace quetzal {
namespace util {
namespace wire {

/**
 * @name CRC-32C (Castagnoli, reflected, poly 0x82F63B78)
 *
 * The checksum behind btrace chunks and checkpoint archives. The
 * Castagnoli polynomial (not IEEE 802.3) because x86 carries it in
 * silicon (SSE4.2 crc32); the software slice-by-8 fallback produces
 * bit-identical values, so wire bytes never depend on the host.
 */
/// @{
namespace detail {
constexpr std::uint32_t
crcEntry(std::uint32_t index)
{
    std::uint32_t crc = index;
    for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    return crc;
}

/**
 * Slice-by-8 tables: table[t][b] is the CRC contribution of byte b
 * seen t+1 positions before the end of an 8-byte block, so eight
 * lookups advance the CRC a full 8 bytes per iteration (~8x the
 * classic one-table byte loop on chunk-sized payloads).
 */
struct CrcTable
{
    std::uint32_t entry[8][256] = {};
    constexpr CrcTable()
    {
        for (std::uint32_t i = 0; i < 256; ++i)
            entry[0][i] = crcEntry(i);
        for (std::size_t t = 1; t < 8; ++t) {
            for (std::uint32_t i = 0; i < 256; ++i)
                entry[t][i] = (entry[t - 1][i] >> 8) ^
                    entry[0][entry[t - 1][i] & 0xFFu];
        }
    }
};

inline constexpr CrcTable kCrcTable{};

/** Advance a raw (pre-finalization) CRC state over `size` bytes. */
inline std::uint32_t
crc32cSoftware(std::uint32_t crc, const unsigned char *bytes,
               std::size_t size)
{
    const auto &table = kCrcTable.entry;
    // Explicit little-endian assembly keeps the result
    // byte-order-independent; the compiler folds it to two loads on
    // little-endian hosts.
    while (size >= 8) {
        const std::uint32_t lo = crc ^
            (static_cast<std::uint32_t>(bytes[0]) |
             static_cast<std::uint32_t>(bytes[1]) << 8 |
             static_cast<std::uint32_t>(bytes[2]) << 16 |
             static_cast<std::uint32_t>(bytes[3]) << 24);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(bytes[4]) |
            static_cast<std::uint32_t>(bytes[5]) << 8 |
            static_cast<std::uint32_t>(bytes[6]) << 16 |
            static_cast<std::uint32_t>(bytes[7]) << 24;
        crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
            table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
            table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
            table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
        bytes += 8;
        size -= 8;
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[0][(crc ^ bytes[i]) & 0xFFu];
    return crc;
}

#ifdef QUETZAL_WIRE_X86_CRC
[[gnu::target("sse4.2")]] inline std::uint32_t
crc32cHardware(std::uint32_t crc, const unsigned char *bytes,
               std::size_t size)
{
    std::uint64_t wide = crc;
    while (size >= 8) {
        std::uint64_t word;
        std::memcpy(&word, bytes, 8);
        wide = _mm_crc32_u64(wide, word);
        bytes += 8;
        size -= 8;
    }
    crc = static_cast<std::uint32_t>(wide);
    while (size-- > 0)
        crc = _mm_crc32_u8(crc, *bytes++);
    return crc;
}

inline bool
crc32cHaveHardware()
{
    static const bool have = __builtin_cpu_supports("sse4.2");
    return have;
}
#endif

inline std::uint32_t
crc32cUpdate(std::uint32_t crc, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
#ifdef QUETZAL_WIRE_X86_CRC
    if (crc32cHaveHardware())
        return crc32cHardware(crc, bytes, size);
#endif
    return crc32cSoftware(crc, bytes, size);
}
} // namespace detail

/** CRC-32C of a byte range. */
inline std::uint32_t
crc32(const void *data, std::size_t size)
{
    return detail::crc32cUpdate(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

inline std::uint32_t
crc32(const std::string &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

/** Incremental CRC-32C, for checksums spanning several buffers. */
class Crc32
{
  public:
    void
    update(const void *data, std::size_t size)
    {
        state = detail::crc32cUpdate(state, data, size);
    }

    std::uint32_t value() const { return state ^ 0xFFFFFFFFu; }

  private:
    std::uint32_t state = 0xFFFFFFFFu;
};
/// @}

/** @name Encoders (append to a byte string) */
/// @{
inline void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80u) {
        out.push_back(static_cast<char>((value & 0x7Fu) | 0x80u));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Zigzag-map a signed value so small magnitudes stay small. */
constexpr std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
        static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
        -static_cast<std::int64_t>(value & 1u);
}

inline void
putZigzag(std::string &out, std::int64_t value)
{
    putVarint(out, zigzag(value));
}

inline void
putFixed32(std::string &out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
}

inline void
putFixed64(std::string &out, std::uint64_t value)
{
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
}

/** Bit-exact double: raw IEEE-754 pattern as fixed64. */
inline void
putDouble(std::string &out, double value)
{
    putFixed64(out, std::bit_cast<std::uint64_t>(value));
}

/** Length-prefixed byte string. */
inline void
putBytes(std::string &out, const std::string &bytes)
{
    putVarint(out, bytes.size());
    out.append(bytes);
}
/// @}

/**
 * @name Raw encoders (append through a char pointer)
 * Hot-path variants for fixed-bound records: encode into a stack
 * buffer with raw stores, then append the record to the output
 * string in one call, instead of paying a capacity check per byte.
 * Every function returns the advanced cursor; the caller guarantees
 * the buffer holds the worst case (10 bytes per varint, 8 per
 * fixed64). Byte-for-byte identical to the string encoders above.
 */
/// @{
inline char *
putVarintRaw(char *out, std::uint64_t value)
{
    // One- and two-byte values dominate real streams (field masks
    // drop zeros, ticks are delta-coded); peel those iterations so
    // the common cases are straight-line code.
    if (value < 0x80u) {
        *out++ = static_cast<char>(value);
        return out;
    }
    *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
    value >>= 7;
    if (value < 0x80u) {
        *out++ = static_cast<char>(value);
        return out;
    }
    *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
    value >>= 7;
    while (value >= 0x80u) {
        *out++ = static_cast<char>((value & 0x7Fu) | 0x80u);
        value >>= 7;
    }
    *out++ = static_cast<char>(value);
    return out;
}

inline char *
putZigzagRaw(char *out, std::int64_t value)
{
    return putVarintRaw(out, zigzag(value));
}

inline char *
putFixed64Raw(char *out, std::uint64_t value)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &value, sizeof value);
        return out + sizeof value;
    } else {
        for (int shift = 0; shift < 64; shift += 8)
            *out++ = static_cast<char>((value >> shift) & 0xFFu);
        return out;
    }
}

inline char *
putDoubleRaw(char *out, double value)
{
    return putFixed64Raw(out, std::bit_cast<std::uint64_t>(value));
}

inline char *
putFixed32Raw(char *out, std::uint32_t value)
{
    for (int shift = 0; shift < 32; shift += 8)
        *out++ = static_cast<char>((value >> shift) & 0xFFu);
    return out;
}

/** Bytes putVarint writes for `value` (1 to 10), for exact sizing. */
constexpr std::size_t
varintSize(std::uint64_t value)
{
    return static_cast<std::size_t>(std::bit_width(value | 1u) + 6) / 7;
}
/// @}

/**
 * Bounds-checked decoder over a byte range. Every get* returns false
 * (and leaves the cursor unspecified) on truncation or malformed
 * input instead of trapping, so readers can turn corruption into a
 * clean diagnostic naming the file and offset.
 */
class Reader
{
  public:
    Reader(const void *data, std::size_t size)
        : cursor(static_cast<const unsigned char *>(data)),
          limit(cursor + size)
    {
    }

    explicit Reader(const std::string &bytes)
        : Reader(bytes.data(), bytes.size())
    {
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(limit - cursor);
    }

    bool atEnd() const { return cursor == limit; }

    bool
    getByte(std::uint8_t &value)
    {
        if (cursor == limit)
            return false;
        value = *cursor++;
        return true;
    }

    bool
    getVarint(std::uint64_t &value)
    {
        value = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            if (cursor == limit)
                return false;
            const unsigned char byte = *cursor++;
            value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
            if ((byte & 0x80u) == 0)
                return shift < 63 || (byte >> 1) == 0;
        }
        return false;
    }

    bool
    getZigzag(std::int64_t &value)
    {
        std::uint64_t raw = 0;
        if (!getVarint(raw))
            return false;
        value = unzigzag(raw);
        return true;
    }

    bool
    getFixed32(std::uint32_t &value)
    {
        if (remaining() < 4)
            return false;
        std::uint32_t out = 0;
        for (int shift = 0; shift < 32; shift += 8)
            out |= static_cast<std::uint32_t>(*cursor++) << shift;
        value = out;
        return true;
    }

    bool
    getFixed64(std::uint64_t &value)
    {
        if (remaining() < 8)
            return false;
        std::uint64_t out = 0;
        for (int shift = 0; shift < 64; shift += 8)
            out |= static_cast<std::uint64_t>(*cursor++) << shift;
        value = out;
        return true;
    }

    bool
    getDouble(double &value)
    {
        std::uint64_t bits = 0;
        if (!getFixed64(bits))
            return false;
        value = std::bit_cast<double>(bits);
        return true;
    }

    bool
    getBytes(std::string &bytes)
    {
        std::uint64_t size = 0;
        if (!getVarint(size) || size > remaining())
            return false;
        bytes.assign(reinterpret_cast<const char *>(cursor),
                     static_cast<std::size_t>(size));
        cursor += size;
        return true;
    }

  private:
    const unsigned char *cursor;
    const unsigned char *limit;
};

} // namespace wire
} // namespace util
} // namespace quetzal

#endif // QUETZAL_UTIL_WIRE_HPP
