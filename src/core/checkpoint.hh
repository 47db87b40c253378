/**
 * @file
 * Checkpoint envelope: the versioned container around a session's
 * prefix snapshot (DESIGN.md section 10).
 *
 * A campaign takes one snapshot per (benchmark-suite, voltage) session
 * after the golden prefix and forks every replicate's continuation
 * from it. The envelope makes that blob self-describing and refusable:
 *
 *     bytes 0-7    magic "XSERCKPT"
 *     bytes 8-11   format version (u32, little-endian)
 *     bytes 12-15  session index within the campaign (u32)
 *     bytes 16-23  campaign configuration hash (u64)
 *     bytes 24-31  payload size in bytes (u64)
 *     bytes 32-39  checksum of the payload (u64, checkpointChecksum)
 *     bytes 40-    payload (SnapshotWriter stream)
 *
 * openCheckpoint() validates every field before exposing the payload
 * and reports failures gracefully ({ok, error}, mirroring the .xtrace
 * reader): a checkpoint crossing a process or version boundary is
 * external input. Once the checksum has passed, payload decoding
 * errors indicate a logic bug and the SnapshotReader fails hard.
 */

#ifndef XSER_CORE_CHECKPOINT_HH
#define XSER_CORE_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xser::core {

/**
 * Envelope format version; bump on any envelope or payload layout
 * change. Version 2 replaced the byte-wise FNV-1a payload checksum
 * with checkpointChecksum(); the payload stream is unchanged.
 */
inline constexpr uint32_t checkpointVersion = 2;

/**
 * The envelope's payload checksum: four lanes, each folding
 * consecutive little-endian 64-bit words with an xor-multiply-rotate
 * step, then combined with the payload length. Every step is
 * bijective, so any change confined to one word (in particular any
 * single bit flip) always changes the checksum. Word-at-a-time, it
 * runs at memory speed on the ~62 MB prefix snapshots.
 */
uint64_t checkpointChecksum(const uint8_t *data, size_t size);

/**
 * Wrap a prefix snapshot payload in the envelope.
 *
 * @param session_index Session's index within the campaign.
 * @param config_hash campaignConfigHash() of the owning campaign.
 * @param payload SnapshotWriter stream (moved into the envelope).
 */
std::vector<uint8_t> sealCheckpoint(uint32_t session_index,
                                    uint64_t config_hash,
                                    std::vector<uint8_t> payload);

/** Result of opening an envelope: a validated view into its bytes. */
struct CheckpointView {
    bool ok = false;
    std::string error;           ///< set when !ok
    uint32_t sessionIndex = 0;
    uint64_t configHash = 0;
    const uint8_t *payload = nullptr;  ///< into the caller's buffer
    size_t payloadSize = 0;
};

/**
 * Validate an envelope (magic, version, sizes, payload checksum) and
 * return a view of its payload. The view aliases `bytes`, which must
 * outlive it. Never fatals: malformed input yields {ok=false, error}.
 */
CheckpointView openCheckpoint(const std::vector<uint8_t> &bytes);

} // namespace xser::core

#endif // XSER_CORE_CHECKPOINT_HH
