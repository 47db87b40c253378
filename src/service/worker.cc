/**
 * @file
 * xser-worker implementation.
 */

#include "service/worker.hh"

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "net/frame.hh"
#include "net/socket.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_writer.hh"

namespace xser::service {

namespace {

/** The golden prefix one campaign holds for one prefix key. */
struct HeldPrefix {
    /** Sealed envelope, addressed to the session that sealed it. */
    std::vector<uint8_t> checkpoint;
    telemetry::MetricShard recorded; ///< what running the prefix recorded
};

/** Everything the worker caches for one campaign. */
struct WorkerCampaign {
    CampaignParams params;
    std::unique_ptr<core::ShardExecutor> executor;
    std::map<size_t, HeldPrefix> prefixes;   ///< by prefix donor
    std::set<uint32_t> prefixTelemetrySent; ///< sessions reported
};

class Worker
{
  public:
    explicit Worker(const WorkerConfig &config) : config_(config) {}

    int
    run()
    {
        std::string error;
        conn_ = net::connectTo(config_.host, config_.port, error);
        if (!conn_.open())
            fatal(msg("cannot connect to ", config_.host, ":",
                      config_.port, ": ", error));
        send(FrameType::Hello,
             encodeHello({PeerRole::Worker}));

        uint64_t last_heartbeat = telemetry::monotonicNanos();
        for (;;) {
            std::vector<net::PollItem> items(1);
            items[0].fd = conn_.fd();
            items[0].wantRead = true;
            items[0].wantWrite = !outbox_.empty();
            net::pollSockets(items, 1000);
            if (items[0].canRead) {
                std::string bytes;
                const net::ReadStatus status = conn_.readSome(bytes);
                if (status == net::ReadStatus::Closed) {
                    inform("server closed the connection; exiting");
                    return 0;
                }
                if (status == net::ReadStatus::Error)
                    fatal("connection to server lost");
                reader_.feed(bytes.data(), bytes.size());
                if (!drainFrames())
                    return 1;
            }
            if (!outbox_.empty() &&
                conn_.writeSome(outbox_) == net::WriteStatus::Error)
                fatal("connection to server lost");
            const uint64_t now = telemetry::monotonicNanos();
            if (static_cast<double>(now - last_heartbeat) * 1e-9 >
                config_.heartbeatSeconds) {
                send(FrameType::Heartbeat, "");
                last_heartbeat = now;
            }
        }
    }

  private:
    void
    send(FrameType type, const std::string &payload)
    {
        outbox_ +=
            net::encodeFrame(static_cast<uint32_t>(type), payload);
    }

    /** Drain buffered frames; false means exit with an error. */
    bool
    drainFrames()
    {
        net::Frame frame;
        for (;;) {
            const net::FrameReader::Status status =
                reader_.next(frame);
            if (status == net::FrameReader::Status::NeedMore)
                return true;
            if (status == net::FrameReader::Status::Error) {
                warn(msg("protocol error from server: ",
                         reader_.error()));
                return false;
            }
            if (!handleFrame(frame))
                return false;
        }
    }

    bool
    handleFrame(const net::Frame &frame)
    {
        std::string error;
        switch (static_cast<FrameType>(frame.type)) {
          case FrameType::HelloAck:
            send(FrameType::WorkerReady, "");
            return true;
          case FrameType::Heartbeat:
            return true;
          case FrameType::ShardAssign: {
            ShardAssignMsg assign;
            if (!decodeShardAssign(frame.payload, assign, error)) {
                warn(msg("bad shard assignment: ", error));
                return false;
            }
            ++assignmentsSeen_;
            if (config_.crashOnShard != 0 &&
                assignmentsSeen_ == config_.crashOnShard) {
                // Test hook: die abruptly mid-shard, as a crashed or
                // OOM-killed worker would. No reply, no cleanup.
                std::_Exit(3);
            }
            runShard(assign);
            send(FrameType::WorkerReady, "");
            return true;
          }
          case FrameType::ErrorMsg: {
            ErrorMsgMsg message;
            if (decodeErrorMsg(frame.payload, message, error))
                warn(msg("server error: ", message.text));
            return false;
          }
          default:
            warn(msg("unexpected frame type ", frame.type,
                     " from server"));
            return false;
        }
    }

    WorkerCampaign &
    campaignFor(const ShardAssignMsg &assign)
    {
        const auto it = campaigns_.find(assign.campaignId);
        if (it != campaigns_.end())
            return *it->second;
        // Bound the cache: stale campaigns keep whole checkpoint sets
        // alive; a worker only ever serves a few concurrently.
        if (campaigns_.size() >= 4)
            campaigns_.clear();
        auto campaign = std::make_unique<WorkerCampaign>();
        campaign->params = assign.params;
        core::CampaignConfig config = buildCampaign(assign.params);
        const uint64_t hash = core::campaignConfigHash(config);
        if (hash != assign.params.configHash)
            fatal(msg("campaign config hash mismatch (server ",
                      assign.params.configHash, ", worker ", hash,
                      "); worker and server builds are skewed"));
        campaign->executor = std::make_unique<core::ShardExecutor>(
            config, assign.params.seed, assign.params.checkpoint);
        return *campaigns_
                    .emplace(assign.campaignId, std::move(campaign))
                    .first->second;
    }

    void
    runShard(const ShardAssignMsg &assign)
    {
        WorkerCampaign &campaign = campaignFor(assign);
        const core::ShardExecutor &executor = *campaign.executor;
        ShardResultMsg result;
        result.campaignId = assign.campaignId;
        result.session = assign.session;
        result.replicateBegin = assign.replicateBegin;
        result.replicateEnd = assign.replicateEnd;

        const std::vector<uint8_t> *checkpoint = nullptr;
        if (assign.params.checkpoint) {
            // One envelope per prefix key, sealed on the key's first
            // shard and read by every equal-key session's units. The
            // seal's telemetry is kept so the server can reproduce the
            // local once-per-session prefix accounting (it keeps the
            // first blob per session): a session that reuses the key
            // reports its counts, but no seconds for a prefix it did
            // not run.
            HeldPrefix &held =
                campaign.prefixes[executor.prefixDonor(assign.session)];
            const bool seal = held.checkpoint.empty();
            if (seal) {
                const telemetry::ShardScope scope(&held.recorded);
                held.checkpoint = executor.sealPrefix(assign.session);
            }
            const bool first_report =
                campaign.prefixTelemetrySent.insert(assign.session).second;
            if (first_report) {
                telemetry::MetricShard replayed;
                replayed.mergeCounts(held.recorded);
                result.prefixTelemetry =
                    encodeMetricShard(seal ? held.recorded : replayed);
            }
            checkpoint = &held.checkpoint;
        }

        telemetry::MetricShard shard_telemetry;
        {
            const telemetry::ShardScope scope(&shard_telemetry);
            for (uint32_t replicate = assign.replicateBegin;
                 replicate < assign.replicateEnd; ++replicate) {
                UnitResultMsg unit;
                unit.replicate = replicate;
                std::unique_ptr<trace::TraceBuffer> buffer;
                if (assign.params.wantTrace) {
                    buffer = std::make_unique<trace::TraceBuffer>(
                        assign.params.traceBufferEvents);
                    executor.stampBufferInfo(*buffer, assign.session,
                                             replicate);
                }
                unit.result = executor.runUnitRecorded(
                    assign.session, replicate, buffer.get(),
                    checkpoint);
                if (buffer != nullptr) {
                    unit.traceEventCount = buffer->events().size();
                    unit.traceBytes =
                        trace::TraceWriter::encodeUnit(*buffer);
                }
                result.units.push_back(std::move(unit));
            }
        }
        result.shardTelemetry = encodeMetricShard(shard_telemetry);
        send(FrameType::ShardResult, encodeShardResult(result));
    }

    WorkerConfig config_;
    net::TcpConnection conn_;
    net::FrameReader reader_;
    std::string outbox_;
    std::map<uint64_t, std::unique_ptr<WorkerCampaign>> campaigns_;
    unsigned assignmentsSeen_ = 0;
};

} // namespace

int
runWorker(const WorkerConfig &config)
{
    Worker worker(config);
    return worker.run();
}

} // namespace xser::service
