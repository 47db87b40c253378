/**
 * @file
 * Shard execution as a library call: the single implementation of
 * "run one (session, replicate) unit" and "seal one session's golden
 * prefix" that both the in-process worker pool (ParallelCampaignRunner)
 * and the distributed campaign service (src/service) drive.
 *
 * Everything here is a pure function of (campaign config, base seed,
 * coordinates): results are bit-identical whether a unit runs on a
 * local pool thread, a remote worker process, or is re-executed after
 * a worker died mid-shard (DESIGN.md section 12's requeue-determinism
 * argument rests on exactly this property). Telemetry recording is
 * included here -- not in the callers -- so a distributed campaign's
 * counters match a local run's to the bit.
 */

#ifndef XSER_CORE_SHARD_EXECUTOR_HH
#define XSER_CORE_SHARD_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "core/beam_campaign.hh"
#include "trace/trace_buffer.hh"

namespace xser::core {

/**
 * Executes (session, replicate) units of one campaign. Stateless
 * between calls apart from the configuration, so a single instance
 * can serve any number of shards in any order.
 */
class ShardExecutor
{
  public:
    /**
     * @param config The campaign (sessions in canonical order).
     * @param base_seed Seed for replicate-stream derivation.
     * @param checkpoint Fork continuations from sealed prefixes.
     */
    ShardExecutor(const CampaignConfig &config, uint64_t base_seed,
                  bool checkpoint);

    const CampaignConfig &config() const { return config_; }
    uint64_t configHash() const { return configHash_; }
    bool checkpointing() const { return checkpoint_; }

    /**
     * The session's prefix donor: the lowest-index session with an
     * equal PrefixKey (core/test_session.hh). Sessions with the same
     * donor have byte-identical prefix payloads and prefix telemetry,
     * so one sealed envelope serves all of them (see runUnit).
     */
    size_t prefixDonor(size_t session_index) const
    {
        return donors_[session_index];
    }

    /**
     * Run the session's seed-independent golden prefix and seal it
     * into a checkpoint envelope (core/checkpoint.hh). Records the
     * seal telemetry (SessionsPrefixed, CheckpointKilobytes) on the
     * caller's active shard, exactly as the local runner's seal
     * tasks do.
     */
    std::vector<uint8_t> sealPrefix(size_t session_index) const;

    /**
     * Stamp a unit's trace-buffer identity (coordinates, operating
     * point, workload order) the way the canonical merge expects.
     */
    void stampBufferInfo(trace::TraceBuffer &buffer,
                         size_t session_index,
                         unsigned replicate_index) const;

    /**
     * Run one (session, replicate) unit on a fresh platform. When
     * `checkpoint` is non-null the unit restores the session's prefix
     * from it -- an envelope sealed for this session or for any
     * session with the same prefix donor -- and runs only the
     * continuation; otherwise it replays the whole session. `buffer`
     * may be null (tracing off).
     */
    SessionResult runUnit(size_t session_index,
                          unsigned replicate_index,
                          trace::TraceBuffer *buffer,
                          const std::vector<uint8_t> *checkpoint) const;

    /**
     * runUnit plus the per-unit telemetry every execution context
     * records identically (UnitsCompleted, RunsPerUnit,
     * ErrorEventsPerUnit, and the timing-quarantined UnitSeconds /
     * unitsExecuted).
     */
    SessionResult
    runUnitRecorded(size_t session_index, unsigned replicate_index,
                    trace::TraceBuffer *buffer,
                    const std::vector<uint8_t> *checkpoint) const;

  private:
    CampaignConfig config_;
    std::vector<size_t> donors_;
    uint64_t baseSeed_;
    uint64_t configHash_;
    bool checkpoint_;
};

} // namespace xser::core

#endif // XSER_CORE_SHARD_EXECUTOR_HH
