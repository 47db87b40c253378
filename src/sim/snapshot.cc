/**
 * @file
 * SnapshotWriter/SnapshotReader bulk-word encoding.
 *
 * The word-vector paths carry the memory hierarchy's multi-megabyte
 * data arrays, so they take the memcpy shortcut on little-endian hosts
 * (where the in-memory layout already matches the stream format) and
 * fall back to the explicit per-byte encoding elsewhere. Both paths
 * produce identical bytes -- the stream is little-endian by contract.
 */

#include "sim/snapshot.hh"

namespace xser {

void
SnapshotWriter::u64Words(const uint64_t *words, size_t count)
{
    u64(count);
    if constexpr (std::endian::native == std::endian::little) {
        // Append straight from the words: no zero-filled resize first.
        const auto *bytes = reinterpret_cast<const uint8_t *>(words);
        out_.insert(out_.end(), bytes, bytes + count * 8);
    } else {
        for (size_t i = 0; i < count; ++i)
            u64(words[i]);
    }
}

void
SnapshotReader::u64Vector(std::vector<uint64_t> &out)
{
    const uint64_t count = u64();
    // Validate the count itself before multiplying: a corrupt prefix
    // must not overflow into a passing bounds check (or a huge resize).
    if (count > remaining() / 8)
        fatal(msg("snapshot stream underrun reading u64 vector: ", count,
                  " words, have ", remaining(), " bytes"));
    out.resize(static_cast<size_t>(count));
    wordsBody(out.data(), static_cast<size_t>(count));
}

void
SnapshotReader::u64Words(uint64_t *out, size_t count)
{
    const uint64_t length = u64();
    if (length != count)
        fatal(msg("snapshot word run has ", length, " words, expected ",
                  count));
    need(static_cast<uint64_t>(count) * 8, "u64 words");
    wordsBody(out, count);
}

void
SnapshotReader::wordsBody(uint64_t *out, size_t count)
{
    if constexpr (std::endian::native == std::endian::little) {
        if (count > 0)
            std::memcpy(out, data_ + cursor_, count * 8);
        cursor_ += count * 8;
    } else {
        for (size_t i = 0; i < count; ++i)
            out[i] = u64();
    }
}

} // namespace xser
