/**
 * @file
 * Multithreaded campaign execution with deterministic replay.
 *
 * A campaign's sessions are mutually independent (each runs on a
 * freshly constructed platform), and so are whole-campaign replicates
 * run for confidence-interval tightening. ParallelCampaignRunner
 * shards those (session, replicate) work units across a fixed-size
 * worker pool and merges the per-unit results in canonical index
 * order, so the output is bit-identical for any worker count --
 * including one -- and for any scheduling of the workers.
 *
 * Determinism contract:
 *  - replicate 0 runs every session with the seed already present in
 *    its SessionConfig, so results match the sequential
 *    BeamCampaign::execute() bit for bit;
 *  - replicate r >= 1 reseeds session s with
 *    deriveStreamSeed(seed, s, r) (see sim/rng.hh), a pure function of
 *    the coordinate -- never of thread identity or completion order;
 *  - merging (event pooling and the Chan-merge Summary accumulators)
 *    always walks replicates then sessions in index order after all
 *    units have finished.
 */

#ifndef XSER_CORE_PARALLEL_CAMPAIGN_HH
#define XSER_CORE_PARALLEL_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/dcs_calculator.hh"
#include "core/fit_calculator.hh"
#include "stats/summary.hh"
#include "trace/trace_buffer.hh"

namespace xser::trace {
class TraceWriter;
} // namespace xser::trace

namespace xser::telemetry {
class MetricRegistry;
class ProgressMeter;
} // namespace xser::telemetry

namespace xser::core {

/** Parallel execution parameters. */
struct ParallelRunConfig {
    /** Worker threads; 1 executes inline on the calling thread. */
    unsigned jobs = 1;
    /** Whole-campaign replicates (>= 1). */
    unsigned replicates = 1;
    /** Base seed for replicate stream derivation (replicates >= 1). */
    uint64_t seed = 0x5e5510ULL;
    /** Per-unit trace buffer capacity (events) when tracing. */
    uint64_t traceBufferEvents = trace::TraceBuffer::defaultMaxEvents;
    /**
     * Buffer lifecycle events even without a TraceWriter (benchmarks
     * use this to measure buffering cost separately from file I/O).
     */
    bool collectTrace = false;
    /**
     * Checkpoint/fork importance splitting (DESIGN.md section 10): take
     * one prefix snapshot per session and fork every replicate's
     * continuation from it, instead of replaying the golden prefix per
     * (session, replicate) unit. Results -- aggregates and trace bytes
     * -- are bit-identical either way (gated by tests); `false` exists
     * for verification and for measuring the speedup. Excluded from
     * campaignConfigHash for exactly that reason.
     */
    bool checkpoint = true;
    /**
     * Optional metrics sink with at least min(jobs, units) shards;
     * each worker records into its own shard and the registry merges
     * them canonically (DESIGN.md section 11). Telemetry observes
     * only: results and trace bytes are bit-identical whether this is
     * null or not, for any --jobs -- gated by test_telemetry.
     */
    telemetry::MetricRegistry *metrics = nullptr;
    /** Optional live progress meter, ticked once per finished task. */
    telemetry::ProgressMeter *progress = nullptr;
};

/**
 * Stable hash of everything that shapes a campaign's behaviour,
 * embedded in trace headers so an analysis tool can refuse to diff
 * traces from different experiments. Not a cryptographic digest --
 * FNV-1a over the configuration fields in declaration order.
 */
uint64_t campaignConfigHash(const CampaignConfig &config);

/**
 * Mergeable per-session aggregate over replicates: pooled counts for
 * exact Poisson estimates plus Chan-merged spread statistics of the
 * per-replicate point estimates.
 */
struct SessionAggregate {
    volt::OperatingPoint point;
    uint64_t replicates = 0;
    uint64_t runs = 0;
    double fluence = 0.0;
    EventCounts events;
    uint64_t upsetsDetected = 0;
    uint64_t rawUpsetEvents = 0;

    /* Per-replicate point-estimate distributions. */
    Summary fitTotal;
    Summary fitSdc;
    Summary upsetsPerMinute;

    /** Fold one replicate's session result in. */
    void add(const SessionResult &session);

    /** Chan-merge another aggregate of the same session. */
    void merge(const SessionAggregate &other);

    /** Eq. 1 estimates over the pooled counts. */
    DcsBreakdown pooledDcs(double confidence = 0.95) const;

    /** Eq. 2 estimates over the pooled counts. */
    FitBreakdown pooledFit(double confidence = 0.95) const;
};

/** Outcome of a replicated campaign run. */
struct ReplicatedCampaignResult {
    /** Full per-replicate results, indexed [replicate]. */
    std::vector<CampaignResult> replicates;
    /** Merged per-session aggregates, indexed like the config. */
    std::vector<SessionAggregate> sessions;
};

/**
 * Executes a campaign's (session, replicate) units on a worker pool.
 *
 * Unit execution itself lives in core::ShardExecutor (the library
 * seam the distributed campaign service also drives); this class adds
 * the thread pool, the pre-allocated trace-buffer slots, and the
 * canonical post-drain merges.
 *
 * The pool streams sessions: in checkpoint mode each distinct prefix
 * key is one seal task (the golden prefix of its first session,
 * sealed into an envelope) followed by the replicate units of every
 * session with that key. Workers take the lowest unclaimed unit of a
 * sealed prefix, seal the next prefix only when no such unit is
 * ready, and free an envelope when its last unit returns. Each
 * distinct golden prefix runs once, and resident envelopes are
 * bounded by min(jobs, sessions), not by the session count -- one at
 * --jobs 1, where the calling thread seals a prefix, runs its units
 * and frees its envelope before moving on (DESIGN.md section 10).
 */
class ParallelCampaignRunner
{
  public:
    ParallelCampaignRunner(const CampaignConfig &config,
                           const ParallelRunConfig &run);

    /**
     * Execute replicate 0 only (the BeamCampaign-equivalent run).
     *
     * @param trace_writer Optional open writer; when set, each unit
     *        records into its own bounded buffer and the merged trace
     *        is written in canonical unit order after the pool drains,
     *        so the file is bit-identical for any worker count.
     */
    CampaignResult execute(trace::TraceWriter *trace_writer = nullptr);

    /** Execute all replicates and merge. See execute() for tracing. */
    ReplicatedCampaignResult
    executeAll(trace::TraceWriter *trace_writer = nullptr);

    /**
     * Most checkpoint envelopes resident at once during the last
     * execute()/executeAll() -- sealing or sealed and not yet freed.
     * At most min(jobs, sessions); 0 with checkpointing off.
     */
    size_t peakLiveCheckpoints() const { return peakLiveCheckpoints_; }

    /**
     * Golden prefixes the last execute()/executeAll() ran: the
     * number of distinct prefix keys, whatever the worker count; 0
     * with checkpointing off.
     */
    size_t prefixesRun() const { return prefixesRun_; }

  private:
    /** Execute `count` replicates and return them in index order. */
    std::vector<CampaignResult>
    run(unsigned count, trace::TraceWriter *trace_writer);

    CampaignConfig config_;
    ParallelRunConfig run_;
    size_t peakLiveCheckpoints_ = 0;
    size_t prefixesRun_ = 0;
};

} // namespace xser::core

#endif // XSER_CORE_PARALLEL_CAMPAIGN_HH
