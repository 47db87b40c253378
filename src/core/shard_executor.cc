/**
 * @file
 * ShardExecutor implementation (moved from ParallelCampaignRunner so
 * the distributed service can run shards through the same code path).
 */

#include "core/shard_executor.hh"

#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "core/test_session.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "telemetry/metrics.hh"

namespace xser::core {

ShardExecutor::ShardExecutor(const CampaignConfig &config,
                             uint64_t base_seed, bool checkpoint)
    : config_(config), donors_(prefixDonors(config.sessions)),
      baseSeed_(base_seed), configHash_(campaignConfigHash(config)),
      checkpoint_(checkpoint)
{
    if (config_.sessions.empty())
        fatal("shard executor needs at least one session");
}

std::vector<uint8_t>
ShardExecutor::sealPrefix(size_t session_index) const
{
    cpu::XGene2Platform platform(config_.platform);
    TestSession prefix(&platform, config_.sessions[session_index]);
    {
        const telemetry::ScopedPhase timer(telemetry::Phase::Prefix);
        prefix.runPrefix();
    }
    const telemetry::ScopedPhase timer(
        telemetry::Phase::SnapshotEncode);
    SnapshotWriter writer;
    prefix.snapshotPrefix(writer);
    std::vector<uint8_t> envelope = sealCheckpoint(
        static_cast<uint32_t>(session_index), configHash_,
        writer.take());
    telemetry::count(telemetry::Counter::SessionsPrefixed);
    telemetry::distAdd(telemetry::Dist::CheckpointKilobytes,
                       static_cast<double>(envelope.size()) / 1024.0);
    return envelope;
}

void
ShardExecutor::stampBufferInfo(trace::TraceBuffer &buffer,
                               size_t session_index,
                               unsigned replicate_index) const
{
    const SessionConfig &session = config_.sessions[session_index];
    buffer.info.session = static_cast<uint32_t>(session_index);
    buffer.info.replicate = replicate_index;
    buffer.info.pmdMillivolts = session.point.pmdMillivolts;
    buffer.info.socMillivolts = session.point.socMillivolts;
    buffer.info.frequencyHz = session.point.frequencyHz;
    buffer.info.workloads = session.workloadNames;
}

SessionResult
ShardExecutor::runUnit(size_t session_index, unsigned replicate_index,
                       trace::TraceBuffer *buffer,
                       const std::vector<uint8_t> *checkpoint) const
{
    SessionConfig session_config = config_.sessions[session_index];
    // Replicate 0 keeps the configured seed (sequential-compatible);
    // later replicates draw their own coordinate-derived stream.
    if (replicate_index > 0)
        session_config.seed = deriveStreamSeed(
            baseSeed_, static_cast<uint64_t>(session_index),
            replicate_index);
    session_config.traceSink = buffer;
    cpu::XGene2Platform platform(config_.platform);
    TestSession session(&platform, session_config);
    if (checkpoint == nullptr) {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::Continuation);
        return session.execute();
    }

    // Fork path: adopt the session's prefix and run the (seed-
    // dependent) continuation only. The envelope re-validates even
    // though the executor may have sealed it moments ago -- the
    // checksum is cheap next to a session, and a checkpoint that
    // crossed a process or host boundary is external input.
    {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::SnapshotRestore);
        const CheckpointView view = openCheckpoint(*checkpoint);
        if (!view.ok)
            fatal(msg("refusing checkpoint for session ",
                      session_index, ": ", view.error));
        XSER_ASSERT(view.sessionIndex < donors_.size() &&
                        donors_[view.sessionIndex] ==
                            donors_[session_index],
                    "checkpoint sealed for another prefix key");
        XSER_ASSERT(view.configHash == configHash_,
                    "checkpoint/campaign config hash mismatch");
        SnapshotReader reader(view.payload, view.payloadSize);
        session.restorePrefix(reader);
        XSER_ASSERT(reader.atEnd(),
                    "checkpoint payload not fully consumed by restore");
    }
    const telemetry::ScopedPhase timer(telemetry::Phase::Continuation);
    return session.runContinuation();
}

SessionResult
ShardExecutor::runUnitRecorded(
    size_t session_index, unsigned replicate_index,
    trace::TraceBuffer *buffer,
    const std::vector<uint8_t> *checkpoint) const
{
    telemetry::MetricShard *shard = telemetry::activeShard();
    const uint64_t begin_nanos =
        shard != nullptr ? telemetry::monotonicNanos() : 0;
    SessionResult result =
        runUnit(session_index, replicate_index, buffer, checkpoint);
    if (shard != nullptr) {
        ++shard->unitsExecuted;
        telemetry::distAdd(
            telemetry::Dist::UnitSeconds,
            static_cast<double>(telemetry::monotonicNanos() -
                                begin_nanos) *
                1e-9);
        telemetry::count(telemetry::Counter::UnitsCompleted);
        telemetry::distAdd(telemetry::Dist::RunsPerUnit,
                           static_cast<double>(result.runs));
        telemetry::distAdd(telemetry::Dist::ErrorEventsPerUnit,
                           static_cast<double>(result.events.total()));
    }
    return result;
}

} // namespace xser::core
