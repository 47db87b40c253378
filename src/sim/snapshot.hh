/**
 * @file
 * Byte-stream primitives for deterministic state snapshots.
 *
 * SnapshotWriter/SnapshotReader serialize simulator state as a flat
 * little-endian byte stream -- fixed-width integers, bit-cast doubles,
 * and length-prefixed strings/vectors. The encoding is explicitly
 * platform-independent (no host-endianness or padding leaks into the
 * bytes), so two hosts snapshotting the same simulated state produce
 * the same blob and the checkpoint tests can compare blobs byte for
 * byte.
 *
 * Decoding is paranoid in the .xtrace reader's style: every read is
 * bounds-checked and every length prefix is validated against the
 * bytes actually remaining before any allocation, so a truncated or
 * corrupted stream fails loudly instead of reading garbage. (The
 * checkpoint envelope in core/checkpoint.hh additionally checksums the
 * whole payload, so arriving here with bad bytes indicates a logic bug,
 * not bit rot -- hence hard failure rather than error returns.)
 */

#ifndef XSER_SIM_SNAPSHOT_HH
#define XSER_SIM_SNAPSHOT_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace xser {

/** Append-only little-endian encoder for snapshot payloads. */
class SnapshotWriter
{
  public:
    void
    u8(uint8_t value)
    {
        out_.push_back(value);
    }

    void
    u32(uint32_t value)
    {
        for (unsigned i = 0; i < 4; ++i)
            out_.push_back(
                static_cast<uint8_t>((value >> (8 * i)) & 0xffu));
    }

    void
    u64(uint64_t value)
    {
        for (unsigned i = 0; i < 8; ++i)
            out_.push_back(
                static_cast<uint8_t>((value >> (8 * i)) & 0xffull));
    }

    /** Bit pattern of a double (exact round trip, no text formatting). */
    void f64(double value) { u64(std::bit_cast<uint64_t>(value)); }

    /** Length-prefixed string. */
    void
    str(const std::string &text)
    {
        u64(text.size());
        out_.insert(out_.end(), text.begin(), text.end());
    }

    /** Length-prefixed run of `count` 64-bit words. */
    void u64Words(const uint64_t *words, size_t count);

    /** Length-prefixed vector of 64-bit words. */
    void
    u64Vector(const std::vector<uint64_t> &words)
    {
        u64Words(words.data(), words.size());
    }

    /** Length-prefixed vector of bytes. */
    void
    byteVector(const std::vector<uint8_t> &bytes)
    {
        u64(bytes.size());
        out_.insert(out_.end(), bytes.begin(), bytes.end());
    }

    const std::vector<uint8_t> &data() const { return out_; }

    /**
     * Make room for `bytes` more without reallocating. Growing a
     * multi-megabyte stream by doubling copies it and touches about
     * twice its size in fresh pages, so large writers reserve first.
     */
    void reserve(size_t bytes) { out_.reserve(out_.size() + bytes); }

    /** Move the accumulated bytes out (writer becomes empty). */
    std::vector<uint8_t>
    take()
    {
        std::vector<uint8_t> bytes = std::move(out_);
        out_.clear();
        return bytes;
    }

  private:
    std::vector<uint8_t> out_;
};

/** Bounds-checked decoder over a snapshot payload (not owned). */
class SnapshotReader
{
  public:
    SnapshotReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
        XSER_ASSERT(data != nullptr || size == 0,
                    "snapshot reader needs a buffer");
    }

    explicit SnapshotReader(const std::vector<uint8_t> &bytes)
        : SnapshotReader(bytes.data(), bytes.size())
    {
    }

    uint8_t
    u8()
    {
        need(1, "u8");
        return data_[cursor_++];
    }

    uint32_t
    u32()
    {
        need(4, "u32");
        uint32_t value = 0;
        for (unsigned i = 0; i < 4; ++i)
            value |= static_cast<uint32_t>(data_[cursor_++]) << (8 * i);
        return value;
    }

    uint64_t
    u64()
    {
        need(8, "u64");
        uint64_t value = 0;
        for (unsigned i = 0; i < 8; ++i)
            value |= static_cast<uint64_t>(data_[cursor_++]) << (8 * i);
        return value;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const uint64_t length = u64();
        need(length, "string body");
        std::string text(reinterpret_cast<const char *>(data_ + cursor_),
                         static_cast<size_t>(length));
        cursor_ += static_cast<size_t>(length);
        return text;
    }

    /** Read a length-prefixed u64 vector into `out` (replacing it). */
    void u64Vector(std::vector<uint64_t> &out);

    /**
     * Read a length-prefixed run of exactly `count` 64-bit words into
     * `out`; a different length prefix is a stream error.
     */
    void u64Words(uint64_t *out, size_t count);

    /** Read a length-prefixed byte vector into `out` (replacing it). */
    void
    byteVector(std::vector<uint8_t> &out)
    {
        const uint64_t length = u64();
        need(length, "byte vector body");
        out.assign(data_ + cursor_, data_ + cursor_ + length);
        cursor_ += static_cast<size_t>(length);
    }

    size_t remaining() const { return size_ - cursor_; }
    bool atEnd() const { return cursor_ == size_; }

  private:
    /** Copy `count` words whose bounds were already checked. */
    void wordsBody(uint64_t *out, size_t count);

    /** Fail loudly when fewer than `count` bytes remain. */
    void
    need(uint64_t count, const char *what) const
    {
        if (count > size_ - cursor_)
            fatal(msg("snapshot stream underrun reading ", what, ": need ",
                      count, " bytes, have ", size_ - cursor_));
    }

    const uint8_t *data_;
    size_t size_;
    size_t cursor_ = 0;
};

} // namespace xser

#endif // XSER_SIM_SNAPSHOT_HH
