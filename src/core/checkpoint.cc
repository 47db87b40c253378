/**
 * @file
 * Checkpoint envelope implementation.
 */

#include "core/checkpoint.hh"

#include <bit>
#include <cstring>

#include "sim/logging.hh"
#include "telemetry/metrics.hh"

namespace xser::core {

namespace {

constexpr char checkpointMagic[8] = {'X', 'S', 'E', 'R',
                                     'C', 'K', 'P', 'T'};
constexpr size_t headerBytes = 40;

void
putU32(std::vector<uint8_t> &out, uint32_t value)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>((value >> (8 * i)) & 0xffu));
}

void
putU64(std::vector<uint8_t> &out, uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(
            static_cast<uint8_t>((value >> (8 * i)) & 0xffull));
}

uint32_t
getU32(const uint8_t *data)
{
    uint32_t value = 0;
    for (unsigned i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(data[i]) << (8 * i);
    return value;
}

uint64_t
getU64(const uint8_t *data)
{
    uint64_t value = 0;
    for (unsigned i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(data[i]) << (8 * i);
    return value;
}

/** Little-endian 64-bit load (the payload's byte order). */
uint64_t
loadLe64(const uint8_t *data)
{
    if constexpr (std::endian::native != std::endian::little)
        return getU64(data);
    uint64_t value;
    std::memcpy(&value, data, 8);
    return value;
}

/**
 * One lane step. XOR with the word, multiplication by an odd constant
 * and rotation are each bijective, so the lane state after a step
 * determines the word: changing any one word of a lane's input
 * changes that lane's final state.
 */
constexpr uint64_t checksumPrime = 0x9e3779b97f4a7c15ULL;

uint64_t
laneStep(uint64_t lane, uint64_t word)
{
    return std::rotl((lane ^ word) * checksumPrime, 29);
}

} // namespace

uint64_t
checkpointChecksum(const uint8_t *data, size_t size)
{
    // Four independent lanes over consecutive words, so the multiplies
    // of neighbouring words overlap instead of forming one chain.
    uint64_t lanes[4] = {0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL,
                         0xa4093822299f31d0ULL, 0x082efa98ec4e6c89ULL};
    size_t at = 0;
    for (; at + 32 <= size; at += 32) {
        for (unsigned lane = 0; lane < 4; ++lane) {
            lanes[lane] =
                laneStep(lanes[lane], loadLe64(data + at + 8 * lane));
        }
    }
    // Tail: whole words to lanes 0.., then the last bytes zero-padded
    // into one more word (the length is mixed in below, so padding
    // cannot alias a longer payload).
    unsigned lane = 0;
    for (; at + 8 <= size; at += 8, ++lane)
        lanes[lane] = laneStep(lanes[lane], loadLe64(data + at));
    if (at < size) {
        uint64_t word = 0;
        for (unsigned i = 0; at + i < size; ++i)
            word |= static_cast<uint64_t>(data[at + i]) << (8 * i);
        lanes[lane] = laneStep(lanes[lane], word);
    }
    // Combine: each fold is bijective in the lane it adds, so a change
    // confined to one lane survives into the result.
    uint64_t hash = static_cast<uint64_t>(size);
    for (const uint64_t value : lanes)
        hash = laneStep(hash, value);
    hash ^= hash >> 32;
    hash *= checksumPrime;
    hash ^= hash >> 29;
    return hash;
}

std::vector<uint8_t>
sealCheckpoint(uint32_t session_index, uint64_t config_hash,
               std::vector<uint8_t> payload)
{
    std::vector<uint8_t> header;
    header.reserve(headerBytes);
    header.insert(header.end(), checkpointMagic, checkpointMagic + 8);
    putU32(header, checkpointVersion);
    putU32(header, session_index);
    putU64(header, config_hash);
    putU64(header, payload.size());
    putU64(header, checkpointChecksum(payload.data(), payload.size()));
    // The envelope is the payload buffer itself with the header in
    // front: with spare capacity (SnapshotWriter::reserve) that is one
    // in-place move instead of a second multi-megabyte buffer.
    payload.insert(payload.begin(), header.begin(), header.end());
    telemetry::count(telemetry::Counter::CheckpointsSealed);
    telemetry::count(telemetry::Counter::CheckpointSealedBytes,
                     payload.size());
    return payload;
}

CheckpointView
openCheckpoint(const std::vector<uint8_t> &bytes)
{
    CheckpointView view;
    if (bytes.size() < headerBytes) {
        view.error = msg("checkpoint too short: ", bytes.size(),
                         " bytes, header needs ", headerBytes);
        return view;
    }
    if (std::memcmp(bytes.data(), checkpointMagic, 8) != 0) {
        view.error = "bad checkpoint magic (not an XSERCKPT blob)";
        return view;
    }
    const uint32_t version = getU32(bytes.data() + 8);
    if (version != checkpointVersion) {
        view.error = msg("unsupported checkpoint version ", version,
                         " (expected ", checkpointVersion, ")");
        return view;
    }
    view.sessionIndex = getU32(bytes.data() + 12);
    view.configHash = getU64(bytes.data() + 16);
    const uint64_t payload_size = getU64(bytes.data() + 24);
    const uint64_t checksum = getU64(bytes.data() + 32);
    if (payload_size != bytes.size() - headerBytes) {
        view.error = msg("checkpoint payload size mismatch: header "
                         "declares ", payload_size, " bytes, blob has ",
                         bytes.size() - headerBytes);
        return view;
    }
    const uint8_t *payload = bytes.data() + headerBytes;
    const uint64_t actual =
        checkpointChecksum(payload, static_cast<size_t>(payload_size));
    if (actual != checksum) {
        view.error = msg("checkpoint payload checksum mismatch: "
                         "expected ", checksum, ", computed ", actual);
        return view;
    }
    view.ok = true;
    view.payload = payload;
    view.payloadSize = static_cast<size_t>(payload_size);
    telemetry::count(telemetry::Counter::CheckpointsOpened);
    telemetry::count(telemetry::Counter::CheckpointOpenedBytes,
                     bytes.size());
    return view;
}

} // namespace xser::core
