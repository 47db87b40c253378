/**
 * @file
 * ParallelCampaignRunner implementation.
 */

#include "core/parallel_campaign.hh"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "sim/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "trace/trace_writer.hh"

namespace xser::core {

uint64_t
campaignConfigHash(const CampaignConfig &config)
{
    uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    auto mix = [&hash](uint64_t value) {
        for (unsigned i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xffULL;
            hash *= 0x100000001b3ULL;  // FNV-1a prime
        }
    };
    auto mix_double = [&mix](double value) {
        mix(std::bit_cast<uint64_t>(value));
    };
    auto mix_string = [&hash, &mix](const std::string &text) {
        mix(text.size());
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ULL;
        }
    };

    const mem::MemorySystemConfig &memory = config.platform.memory;
    mix(memory.numCores);
    mix(memory.lineBytes);
    mix(memory.l1iBytes);
    mix(memory.l1dBytes);
    mix(memory.l1dAssociativity);
    mix(memory.l2Bytes);
    mix(memory.l2Associativity);
    mix(memory.l3Bytes);
    mix(memory.l3Associativity);
    mix(memory.tlbWordsPerCore);
    mix(static_cast<uint64_t>(memory.l1Protection));
    mix(static_cast<uint64_t>(memory.l2Protection));
    mix(static_cast<uint64_t>(memory.l3Protection));
    mix(memory.contentSeed);
    mix(config.platform.chipSeed);

    mix(config.sessions.size());
    for (const SessionConfig &session : config.sessions) {
        mix_double(session.point.pmdMillivolts);
        mix_double(session.point.socMillivolts);
        mix_double(session.point.frequencyHz);
        mix(session.maxErrorEvents);
        mix_double(session.maxFluence);
        mix_double(session.fluencePerRun);
        mix(session.warmupRounds);
        mix(session.seed);
        mix(session.quantumAccesses);
        mix(session.workloadNames.size());
        for (const std::string &name : session.workloadNames)
            mix_string(name);
    }
    return hash;
}

void
SessionAggregate::add(const SessionResult &session)
{
    if (replicates == 0)
        point = session.point;
    ++replicates;
    runs += session.runs;
    fluence += session.fluence;
    events.merge(session.events);
    upsetsDetected += session.upsetsDetected;
    rawUpsetEvents += session.rawUpsetEvents;
    const FitBreakdown fit = FitCalculator::breakdown(session);
    fitTotal.add(fit.total.fit);
    fitSdc.add(fit.sdc.fit);
    upsetsPerMinute.add(session.upsetsPerMinute());
}

void
SessionAggregate::merge(const SessionAggregate &other)
{
    if (other.replicates == 0)
        return;
    if (replicates == 0)
        point = other.point;
    replicates += other.replicates;
    runs += other.runs;
    fluence += other.fluence;
    events.merge(other.events);
    upsetsDetected += other.upsetsDetected;
    rawUpsetEvents += other.rawUpsetEvents;
    fitTotal.merge(other.fitTotal);
    fitSdc.merge(other.fitSdc);
    upsetsPerMinute.merge(other.upsetsPerMinute);
}

DcsBreakdown
SessionAggregate::pooledDcs(double confidence) const
{
    return DcsCalculator::fromCounts(events, upsetsDetected, fluence,
                                     confidence);
}

FitBreakdown
SessionAggregate::pooledFit(double confidence) const
{
    return FitCalculator::fromCounts(events, fluence, confidence);
}

ParallelCampaignRunner::ParallelCampaignRunner(
    const CampaignConfig &config, const ParallelRunConfig &run)
    : config_(config), run_(run)
{
    if (config_.sessions.empty())
        fatal("parallel campaign needs at least one session");
    if (run_.replicates == 0)
        fatal("parallel campaign needs at least one replicate");
    if (run_.jobs == 0)
        run_.jobs = 1;
    if (run_.metrics != nullptr &&
        run_.metrics->shardCount() < run_.jobs)
        fatal(msg("metric registry has ", run_.metrics->shardCount(),
                  " shards but the pool may run ", run_.jobs,
                  " workers; size the registry to --jobs"));
}

std::vector<CampaignResult>
ParallelCampaignRunner::run(unsigned count, trace::TraceWriter *trace_writer)
{
    const size_t num_sessions = config_.sessions.size();
    const size_t units = num_sessions * count;
    const ShardExecutor executor(config_, run_.seed, run_.checkpoint);

    // When tracing, every unit records into its own pre-allocated
    // buffer slot -- workers never share a sink, so no synchronization
    // and no scheduling-dependent interleaving.
    const bool tracing = trace_writer != nullptr || run_.collectTrace;
    std::vector<std::unique_ptr<trace::TraceBuffer>> buffers;
    if (tracing) {
        buffers.reserve(units);
        for (size_t unit = 0; unit < units; ++unit) {
            const size_t session = unit % num_sessions;
            auto buffer = std::make_unique<trace::TraceBuffer>(
                run_.traceBufferEvents);
            executor.stampBufferInfo(
                *buffer, session,
                static_cast<unsigned>(unit / num_sessions));
            buffers.push_back(std::move(buffer));
        }
    }

    // The calling thread records into shard 0 for the serial phases
    // (trace write, merge); pool workers install their own shard
    // below. Null when telemetry is off.
    const telemetry::ShardScope caller_scope(
        run_.metrics != nullptr ? &run_.metrics->shard(0) : nullptr);

    // One task stream in seal order (DESIGN.md section 10): one group
    // per prefix key, in the order of each key's first session. A
    // group is a seal task (checkpoint mode) followed by a unit task
    // for every replicate of each of its sessions. The prefix never
    // consumes the session seed (see TestSession) and is the same for
    // every equal-key session, so one sealed envelope serves every
    // continuation of the group.
    //
    // A worker takes the lowest unclaimed unit of a sealed group,
    // issues the next seal only when no such unit exists, and frees a
    // group's envelope after its last unit. So at most
    // min(jobs, groups) envelopes are resident: when a seal starts,
    // every other live envelope has a distinct worker on it (sealing,
    // running one of its units, or freeing it). Results land in
    // pre-sized slots keyed by unit index, so the schedule can never
    // reorder them.
    struct PrefixTasks {
        std::vector<size_t> sessions;  ///< equal prefix keys, ascending
        std::vector<uint8_t> envelope;
        bool sealed = false;
        size_t units = 0;     ///< sessions.size() * count
        size_t claimed = 0;   ///< units handed to a worker
        size_t finished = 0;  ///< units whose run returned
    };
    std::vector<SessionResult> slots(units);

    // Scheduler state, all guarded by `mutex`. An envelope's bytes are
    // the exception: they are stored before their group is marked
    // sealed and released only after its last unit returned, so units
    // read them unlocked. Without checkpoints there is nothing to
    // seal, and every unit is claimable from the start.
    std::mutex mutex;
    std::condition_variable sealed_cv;  // notified by every finished seal
    std::vector<PrefixTasks> groups;
    std::vector<size_t> group_of(num_sessions);
    for (size_t s = 0; s < num_sessions; ++s) {
        const size_t donor = executor.prefixDonor(s);
        if (donor == s) {
            group_of[s] = groups.size();
            groups.emplace_back();
            groups.back().sealed = !run_.checkpoint;
        }
        PrefixTasks &group = groups[group_of[donor]];
        group.sessions.push_back(s);
        group.units += count;
    }
    size_t next_seal = run_.checkpoint ? 0 : groups.size();
    size_t first_open = 0;  // no group below this has unclaimed units
    size_t sealing = 0;     // seal tasks in flight
    size_t seals_done = 0;  // seal tasks finished
    size_t live = 0;        // envelopes sealing or sealed, not yet freed
    peakLiveCheckpoints_ = 0;
    prefixesRun_ = 0;

    // Worker w records telemetry into shard w -- shards are never
    // shared, and the registry merge walks them in index order, so the
    // merged counters are the same for any worker count or schedule.
    auto worker = [&](size_t w) {
        const telemetry::ShardScope scope(
            run_.metrics != nullptr ? &run_.metrics->shard(w)
                                    : nullptr);
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            while (first_open < groups.size() &&
                   groups[first_open].claimed == groups[first_open].units)
                ++first_open;
            size_t g = first_open;
            while (g < next_seal &&
                   !(groups[g].sealed && groups[g].claimed < groups[g].units))
                ++g;
            if (g < next_seal) {
                PrefixTasks &group = groups[g];
                const size_t claim = group.claimed++;
                const size_t session = group.sessions[claim / count];
                const unsigned replicate =
                    static_cast<unsigned>(claim % count);
                const size_t unit = replicate * num_sessions + session;
                lock.unlock();
                slots[unit] = executor.runUnitRecorded(
                    session, replicate,
                    tracing ? buffers[unit].get() : nullptr,
                    run_.checkpoint ? &group.envelope : nullptr);
                if (run_.progress != nullptr)
                    run_.progress->tick();
                lock.lock();
                if (run_.checkpoint && ++group.finished == group.units) {
                    // No unit reads the envelope any more. It sits
                    // above glibc's mmap threshold, so the free hands
                    // its pages straight back to the OS.
                    std::vector<uint8_t> released =
                        std::move(group.envelope);
                    lock.unlock();
                    released = std::vector<uint8_t>();
                    lock.lock();
                    --live;
                }
                continue;
            }
            if (next_seal < groups.size()) {
                PrefixTasks &group = groups[next_seal++];
                ++sealing;
                ++prefixesRun_;
                peakLiveCheckpoints_ = std::max(peakLiveCheckpoints_, ++live);
                lock.unlock();
                telemetry::MetricShard *shard = telemetry::activeShard();
                telemetry::MetricShard recorded;
                std::vector<uint8_t> envelope;
                {
                    const telemetry::ShardScope seal_scope(
                        shard != nullptr ? &recorded : nullptr);
                    envelope = executor.sealPrefix(group.sessions.front());
                }
                if (shard != nullptr) {
                    // Each equal-key session counts the seal it shares:
                    // its own prefix would have recorded exactly these
                    // counters and distributions, so the manifest keeps
                    // counting simulated work. Phase seconds record only
                    // the prefix that ran.
                    shard->merge(recorded);
                    for (size_t k = 1; k < group.sessions.size(); ++k)
                        shard->mergeCounts(recorded);
                }
                if (run_.progress != nullptr)
                    for (size_t k = 0; k < group.sessions.size(); ++k)
                        run_.progress->tick();
                lock.lock();
                group.envelope = std::move(envelope);
                group.sealed = true;
                --sealing;
                ++seals_done;
                sealed_cv.notify_all();
                continue;
            }
            // Every unit is claimed or waits on a seal in flight, and
            // only a finished seal can make work ready.
            if (sealing == 0)
                return;
            const size_t seen = seals_done;
            sealed_cv.wait(lock, [&] { return seals_done != seen; });
        }
    };

    // One worker runs inline on the calling thread: seal a prefix,
    // run the units of every session that shares it, free its
    // envelope, then the next prefix in seal order.
    const size_t workers = std::min<size_t>(run_.jobs, units);
    if (workers <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker, w);
        for (auto &thread : pool)
            thread.join();
    }

    if (trace_writer != nullptr) {
        const telemetry::ScopedPhase timer(
            telemetry::Phase::TraceWrite);
        // Merge after the pool has drained, in canonical unit order --
        // never completion order -- so the file bytes are independent
        // of the worker count. The array table is a pure function of
        // the platform config; a throwaway hierarchy provides it.
        mem::EdacReporter reporter;
        mem::MemorySystem memory(config_.platform.memory, &reporter);
        trace_writer->writeHeader(run_.seed, campaignConfigHash(config_),
                                  memory.traceArrayTable(), units);
        for (const auto &buffer : buffers) {
            telemetry::count(telemetry::Counter::TraceEventsMerged,
                             buffer->events().size());
            trace_writer->appendUnit(*buffer);
        }
        trace_writer->finish();
    }

    const telemetry::ScopedPhase timer(telemetry::Phase::Merge);
    std::vector<CampaignResult> results(count);
    for (size_t unit = 0; unit < units; ++unit)
        results[unit / num_sessions].sessions.push_back(
            std::move(slots[unit]));
    return results;
}

CampaignResult
ParallelCampaignRunner::execute(trace::TraceWriter *trace_writer)
{
    return std::move(run(1, trace_writer).front());
}

ReplicatedCampaignResult
ParallelCampaignRunner::executeAll(trace::TraceWriter *trace_writer)
{
    ReplicatedCampaignResult result;
    result.replicates = run(run_.replicates, trace_writer);
    const telemetry::ShardScope scope(
        run_.metrics != nullptr ? &run_.metrics->shard(0) : nullptr);
    const telemetry::ScopedPhase timer(telemetry::Phase::Merge);
    result.sessions.resize(config_.sessions.size());
    // Canonical merge order: replicate-major, session-minor, always
    // after the pool has drained -- never completion order.
    for (const auto &replicate : result.replicates)
        for (size_t s = 0; s < replicate.sessions.size(); ++s)
            result.sessions[s].add(replicate.sessions[s]);
    return result;
}

} // namespace xser::core
