/**
 * @file
 * Little-endian binary serialization helpers for the checkpoint subsystem
 * (see simt/checkpoint.hpp and DESIGN.md section 13).
 *
 * ByteWriter appends fixed-width little-endian fields to a growable
 * buffer; ByteReader consumes them with a sticky failure flag, so a
 * truncated or corrupted image degrades into one structured error at the
 * end of a load instead of undefined behaviour in the middle. Every
 * value read after a failure is zero/empty, which keeps loaders free of
 * per-field error checks.
 */

#ifndef CHERI_SIMT_SUPPORT_SERIALIZE_HPP_
#define CHERI_SIMT_SUPPORT_SERIALIZE_HPP_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace support
{

class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        buf_.push_back(static_cast<uint8_t>(v));
        buf_.push_back(static_cast<uint8_t>(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        buf_.push_back(static_cast<uint8_t>(v));
        buf_.push_back(static_cast<uint8_t>(v >> 8));
        buf_.push_back(static_cast<uint8_t>(v >> 16));
        buf_.push_back(static_cast<uint8_t>(v >> 24));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void b(bool v) { u8(v ? 1 : 0); }

    /** Doubles travel as their IEEE-754 bit pattern (bit-exact). */
    void
    f64(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed (u32) byte string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(reinterpret_cast<const uint8_t *>(s.data()), s.size());
    }

    void
    bytes(const uint8_t *p, size_t n)
    {
        if (n == 0)
            return;
        const size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, p, n);
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    size_t size() const { return buf_.size(); }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

class ByteReader
{
  public:
    ByteReader(const uint8_t *p, size_t n) : p_(p), end_(p + n) {}

    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size())
    {
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return *p_++;
    }

    uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        const uint16_t v = static_cast<uint16_t>(p_[0]) |
                           static_cast<uint16_t>(p_[1]) << 8;
        p_ += 2;
        return v;
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        const uint32_t v = static_cast<uint32_t>(p_[0]) |
                           static_cast<uint32_t>(p_[1]) << 8 |
                           static_cast<uint32_t>(p_[2]) << 16 |
                           static_cast<uint32_t>(p_[3]) << 24;
        p_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        const uint64_t lo = u32();
        return lo | static_cast<uint64_t>(u32()) << 32;
    }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const uint32_t n = u32();
        if (n > remaining()) {
            failWith("string length exceeds remaining input");
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p_), n);
        p_ += n;
        return s;
    }

    bool
    bytes(uint8_t *out, size_t n)
    {
        if (!need(n))
            return false;
        std::memcpy(out, p_, n);
        p_ += n;
        return true;
    }

    /** Skip @p n bytes (section framing). */
    bool
    skip(size_t n)
    {
        if (!need(n))
            return false;
        p_ += n;
        return true;
    }

    size_t
    remaining() const
    {
        return failed_ ? 0 : static_cast<size_t>(end_ - p_);
    }

    const uint8_t *cursor() const { return p_; }

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }

    /** Mark the stream failed with a loader-supplied reason. */
    void
    failWith(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
        }
        p_ = end_;
    }

  private:
    bool
    need(size_t n)
    {
        if (failed_)
            return false;
        if (static_cast<size_t>(end_ - p_) < n) {
            failWith("truncated input");
            return false;
        }
        return true;
    }

    const uint8_t *p_;
    const uint8_t *end_;
    bool failed_ = false;
    std::string error_;
};

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of @p n bytes,
 * continuing from @p seed (pass the previous return value to chain).
 * crc32("123456789") == 0xCBF43926.
 */
uint32_t crc32(const uint8_t *p, size_t n, uint32_t seed = 0);

} // namespace support

#endif // CHERI_SIMT_SUPPORT_SERIALIZE_HPP_
