/**
 * @file
 * Determinism tests for the parallel campaign engine: results must be
 * bit-identical for any worker count (1, 2, 8), with or without
 * replicates, and the merged replicate summary must not depend on how
 * units were scheduled across the pool. The streamed seal/unit schedule
 * is additionally checked for its checkpoint-residency bound and, on a
 * grid of worker and replicate counts, for trace and manifest bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/fit_calculator.hh"
#include "core/parallel_campaign.hh"
#include "core/run_manifest.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_writer.hh"

namespace xser::core {
namespace {

/** Fast-but-real campaign: the paper's four sessions, tiny targets. */
CampaignConfig
tinyCampaign(uint64_t seed = 0x5e5510ULL)
{
    CampaignConfig config = BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 6;
        session.maxFluence = 2e9;
        session.warmupRounds = 2;
    }
    return config;
}

void
expectSessionsBitIdentical(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.rawUpsetEvents, b.rawUpsetEvents);
    EXPECT_EQ(a.events.sdcSilent, b.events.sdcSilent);
    EXPECT_EQ(a.events.sdcNotified, b.events.sdcNotified);
    EXPECT_EQ(a.events.appCrash, b.events.appCrash);
    EXPECT_EQ(a.events.sysCrash, b.events.sysCrash);
    // Bit-exact, not approximately equal: the same unit must replay
    // the same arithmetic regardless of which thread ran it.
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    const FitBreakdown fit_a = FitCalculator::breakdown(a);
    const FitBreakdown fit_b = FitCalculator::breakdown(b);
    EXPECT_EQ(fit_a.total.fit, fit_b.total.fit);
    EXPECT_EQ(fit_a.sdc.fit, fit_b.sdc.fit);
    ASSERT_EQ(a.perWorkload.size(), b.perWorkload.size());
    for (size_t w = 0; w < a.perWorkload.size(); ++w) {
        EXPECT_EQ(a.perWorkload[w].name, b.perWorkload[w].name);
        EXPECT_EQ(a.perWorkload[w].runs, b.perWorkload[w].runs);
        EXPECT_EQ(a.perWorkload[w].upsetsDetected,
                  b.perWorkload[w].upsetsDetected);
        EXPECT_EQ(a.perWorkload[w].fluence, b.perWorkload[w].fluence);
    }
}

void
expectCampaignsBitIdentical(const CampaignResult &a,
                            const CampaignResult &b)
{
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t s = 0; s < a.sessions.size(); ++s) {
        SCOPED_TRACE("session " + std::to_string(s));
        expectSessionsBitIdentical(a.sessions[s], b.sessions[s]);
    }
}

void
expectAggregatesBitIdentical(const SessionAggregate &a,
                             const SessionAggregate &b)
{
    EXPECT_EQ(a.replicates, b.replicates);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.events.sdcSilent, b.events.sdcSilent);
    EXPECT_EQ(a.events.sdcNotified, b.events.sdcNotified);
    EXPECT_EQ(a.events.appCrash, b.events.appCrash);
    EXPECT_EQ(a.events.sysCrash, b.events.sysCrash);
    EXPECT_EQ(a.upsetsDetected, b.upsetsDetected);
    EXPECT_EQ(a.rawUpsetEvents, b.rawUpsetEvents);
    EXPECT_EQ(a.fitTotal.count(), b.fitTotal.count());
    EXPECT_EQ(a.fitTotal.mean(), b.fitTotal.mean());
    EXPECT_EQ(a.fitTotal.variance(), b.fitTotal.variance());
    EXPECT_EQ(a.fitSdc.mean(), b.fitSdc.mean());
    EXPECT_EQ(a.upsetsPerMinute.mean(), b.upsetsPerMinute.mean());
}

/**
 * Shared fixture: execute the reference sweep once (1 worker, 2
 * replicates) and compare everything else against it.
 */
class ParallelDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        reference_ = new ReplicatedCampaignResult(runner.executeAll());
    }

    static void
    TearDownTestSuite()
    {
        delete reference_;
        reference_ = nullptr;
    }

    static ReplicatedCampaignResult *reference_;
};

ReplicatedCampaignResult *ParallelDeterminism::reference_ = nullptr;

TEST_F(ParallelDeterminism, SingleWorkerMatchesSequentialBeamCampaign)
{
    // Replicate 0 of the parallel engine is the sequential campaign.
    BeamCampaign sequential(tinyCampaign());
    const CampaignResult expected = sequential.execute();
    expectCampaignsBitIdentical(expected, reference_->replicates[0]);
}

TEST_F(ParallelDeterminism, FastPathOffBitIdentical)
{
    // The event-driven fast path (skip-ahead beam sampling, clean-word
    // read short-circuit, residency-filtered snoops) is default-on; the
    // golden gate for its equivalence contract is that disabling all of
    // it reproduces the reference sweep bit-for-bit.
    CampaignConfig config = tinyCampaign();
    setFastPath(config, false);
    ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = 2;
    ParallelCampaignRunner runner(config, run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 2u);
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, TwoWorkersBitIdentical)
{
    ParallelRunConfig run;
    run.jobs = 2;
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 2u);
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, EightWorkersBitIdentical)
{
    // 8 workers over 8 units: every unit gets its own thread, so any
    // scheduling-order dependence would surface here.
    ParallelRunConfig run;
    run.jobs = 8;
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    for (size_t r = 0; r < sweep.replicates.size(); ++r)
        expectCampaignsBitIdentical(reference_->replicates[r],
                                    sweep.replicates[r]);
    for (size_t s = 0; s < sweep.sessions.size(); ++s)
        expectAggregatesBitIdentical(reference_->sessions[s],
                                     sweep.sessions[s]);
}

TEST_F(ParallelDeterminism, MergedSummaryIndependentOfWorkerCount)
{
    // The merged FIT summaries -- the numbers a sweep exists to
    // produce -- must match across worker counts, not just raw tallies.
    ParallelRunConfig run;
    run.jobs = 5;  // deliberately not a divisor of the unit count
    run.replicates = 2;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    for (size_t s = 0; s < sweep.sessions.size(); ++s) {
        const FitBreakdown expected = reference_->sessions[s].pooledFit();
        const FitBreakdown actual = sweep.sessions[s].pooledFit();
        EXPECT_EQ(expected.total.fit, actual.total.fit);
        EXPECT_EQ(expected.sdc.fit, actual.sdc.fit);
        EXPECT_EQ(expected.total.ci.lower, actual.total.ci.lower);
        EXPECT_EQ(expected.total.ci.upper, actual.total.ci.upper);
    }
}

TEST_F(ParallelDeterminism, DistinctReplicatesDiffer)
{
    // Replicates are independent Monte-Carlo repeats, not copies.
    const ReplicatedCampaignResult &sweep = *reference_;
    bool any_difference = false;
    for (size_t s = 0; s < sweep.replicates[0].sessions.size(); ++s) {
        if (sweep.replicates[0].sessions[s].rawUpsetEvents !=
            sweep.replicates[1].sessions[s].rawUpsetEvents)
            any_difference = true;
    }
    EXPECT_TRUE(any_difference);
}

TEST(ParallelReplicates, AggregatePoolsEveryReplicate)
{
    ParallelRunConfig run;
    run.jobs = 4;
    run.replicates = 3;
    CampaignConfig config = tinyCampaign();
    config.sessions.resize(2);  // 6 units
    ParallelCampaignRunner runner(config, run);
    const ReplicatedCampaignResult sweep = runner.executeAll();
    ASSERT_EQ(sweep.replicates.size(), 3u);
    ASSERT_EQ(sweep.sessions.size(), 2u);
    for (size_t s = 0; s < sweep.sessions.size(); ++s) {
        uint64_t runs = 0;
        double fluence = 0.0;
        EventCounts events;
        for (const auto &replicate : sweep.replicates) {
            runs += replicate.sessions[s].runs;
            fluence += replicate.sessions[s].fluence;
            events.merge(replicate.sessions[s].events);
        }
        EXPECT_EQ(sweep.sessions[s].replicates, 3u);
        EXPECT_EQ(sweep.sessions[s].runs, runs);
        EXPECT_EQ(sweep.sessions[s].fluence, fluence);
        EXPECT_EQ(sweep.sessions[s].events.total(), events.total());
        EXPECT_EQ(sweep.sessions[s].fitTotal.count(), 3u);
    }
}

TEST(ParallelRunner, ExecuteReturnsReplicateZeroOnly)
{
    ParallelRunConfig run;
    run.jobs = 3;
    run.replicates = 1;
    CampaignConfig config = tinyCampaign();
    config.sessions.resize(2);
    ParallelCampaignRunner runner(config, run);
    const CampaignResult result = runner.execute();
    ASSERT_EQ(result.sessions.size(), 2u);
    BeamCampaign sequential(config);
    expectCampaignsBitIdentical(sequential.execute(), result);
}

/**
 * Smallest campaign that still seals, forks and traces real sessions:
 * the paper's four operating points, one small workload, two measured
 * runs each. Small enough for the ThreadSanitizer job.
 */
CampaignConfig
microCampaign(uint64_t seed = 0x5e5510ULL)
{
    CampaignConfig config = BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.workloadNames = {"EP"};
        session.maxErrorEvents = 2;
        session.maxFluence = 5e8;
        session.maxRuns = 2;
        session.warmupRounds = 0;
    }
    return config;
}

/**
 * microCampaign's four operating points arranged as a prefix-key
 * pattern. AAAB is the paper's order: three 2.4 GHz points share one
 * golden prefix, the 900 MHz point has its own. ABAB alternates the
 * two clocks (the second 900 MHz point at 800 mV). ABCD gives every
 * session its own key: a shorter quantum and a 1.2 GHz clock.
 */
CampaignConfig
keyedCampaign(const std::string &order)
{
    CampaignConfig config = microCampaign();
    std::vector<SessionConfig> &s = config.sessions;
    if (order == "ABAB") {
        SessionConfig slow = s[3];
        slow.point.pmdMillivolts = 800.0;
        s = {s[0], s[3], s[1], slow};
    } else if (order == "ABCD") {
        s = {s[0], s[3], s[1], s[2]};
        s[2].quantumAccesses = 2048;
        s[3].point.frequencyHz = 1.2e9;
    }
    return config;
}

/** The session orders of the schedule tests, with their key counts. */
const std::vector<std::pair<std::string, size_t>> keyOrders = {
    {"AAAB", 2}, {"ABAB", 2}, {"ABCD", 4}};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** Everything observable about one traced, metered runner execution. */
struct ScheduledRun {
    ReplicatedCampaignResult result;
    std::string traceBytes;
    std::string manifest;  ///< rendered manifest up to "timing"
    telemetry::MetricShard metrics;  ///< merged registry
    size_t peakLiveCheckpoints = 0;
    size_t prefixesRun = 0;
};

ScheduledRun
runScheduled(const std::string &tag, const CampaignConfig &config,
             unsigned jobs, unsigned replicates, bool checkpoint)
{
    const std::string path = ::testing::TempDir() + "schedule-" + tag +
                             "-j" + std::to_string(jobs) + "-r" +
                             std::to_string(replicates) +
                             (checkpoint ? "-on" : "-off") + ".xtrace";
    telemetry::MetricRegistry registry(jobs);
    ParallelRunConfig run;
    run.jobs = jobs;
    run.replicates = replicates;
    run.checkpoint = checkpoint;
    run.metrics = &registry;
    ParallelCampaignRunner runner(config, run);
    ScheduledRun out;
    {
        trace::TraceWriter writer(path);
        out.result = runner.executeAll(&writer);
    }
    out.traceBytes = readFileBytes(path);
    out.peakLiveCheckpoints = runner.peakLiveCheckpoints();
    out.prefixesRun = runner.prefixesRun();
    out.metrics = registry.merged();

    ManifestRunInfo info;
    info.tool = "test";
    info.configHash = campaignConfigHash(config);
    info.seed = run.seed;
    info.sessions = static_cast<unsigned>(config.sessions.size());
    info.replicates = replicates;
    info.checkpoint = checkpoint;
    const std::string manifest = renderRunManifest(
        info, out.result.sessions, &registry, jobs, 0.0);
    // "timing" is the last section and the only one allowed to differ.
    out.manifest = manifest.substr(0, manifest.find("\"timing\""));
    return out;
}

void
expectSweepsBitIdentical(const ReplicatedCampaignResult &a,
                         const ReplicatedCampaignResult &b)
{
    ASSERT_EQ(a.replicates.size(), b.replicates.size());
    for (size_t r = 0; r < a.replicates.size(); ++r) {
        SCOPED_TRACE("replicate " + std::to_string(r));
        expectCampaignsBitIdentical(a.replicates[r], b.replicates[r]);
    }
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t s = 0; s < a.sessions.size(); ++s)
        expectAggregatesBitIdentical(a.sessions[s], b.sessions[s]);
}

TEST(ScheduleIndependence, GridMatchesSequentialCheckpointOffAndOneWorker)
{
    // The streamed seal/unit schedule and the shared golden prefixes
    // must be invisible: for every session order and on every cell of
    // jobs {1, 2, 3, 8} x replicates {1, 2, 5}, a checkpointed run
    // equals the sequential campaign (replicate 0), the checkpoint-off
    // run (results and trace bytes) and the 1-worker run (manifest
    // outside "timing"). Every session still counts one sealed prefix
    // and every unit one opened checkpoint, while the pool runs one
    // prefix per distinct key.
    for (const auto &[order, keys] : keyOrders) {
        const CampaignConfig config = keyedCampaign(order);
        const size_t sessions = config.sessions.size();
        const CampaignResult sequential = BeamCampaign(config).execute();
        uint64_t raw_upsets = 0;
        for (const unsigned replicates : {1u, 2u, 5u}) {
            const ScheduledRun off =
                runScheduled(order, config, 1, replicates, false);
            ASSERT_FALSE(off.traceBytes.empty());
            EXPECT_EQ(off.prefixesRun, 0u);
            std::string one_worker_manifest;
            for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
                SCOPED_TRACE(order + " jobs " + std::to_string(jobs) +
                             " replicates " +
                             std::to_string(replicates));
                const ScheduledRun on =
                    runScheduled(order, config, jobs, replicates, true);
                expectCampaignsBitIdentical(sequential,
                                            on.result.replicates[0]);
                expectSweepsBitIdentical(off.result, on.result);
                EXPECT_EQ(off.traceBytes, on.traceBytes);
                ASSERT_NE(on.manifest.find("\"counters\""),
                          std::string::npos);
                const auto &counters = on.metrics.counters;
                using telemetry::Counter;
                EXPECT_EQ(counters[static_cast<size_t>(
                              Counter::SessionsPrefixed)],
                          sessions);
                EXPECT_EQ(counters[static_cast<size_t>(
                              Counter::CheckpointsSealed)],
                          sessions);
                EXPECT_EQ(counters[static_cast<size_t>(
                              Counter::CheckpointsOpened)],
                          sessions * replicates);
                EXPECT_EQ(on.prefixesRun, keys);
                if (jobs == 1)
                    one_worker_manifest = on.manifest;
                EXPECT_EQ(one_worker_manifest, on.manifest);
            }
            for (const auto &session : off.result.sessions)
                raw_upsets += session.rawUpsetEvents;
        }
        // Not vacuous: the micro campaign does see upsets.
        EXPECT_GT(raw_upsets, 0u);
    }
}

TEST(ScheduleResidency, PeakLiveCheckpointsBounded)
{
    // A seal starts only when no sealed prefix has an unclaimed unit,
    // so every other live envelope has its own worker (sealing,
    // running one of its units, or freeing it): at most
    // min(jobs, keys) are resident -- within min(jobs, sessions) --
    // exactly one at --jobs 1, whatever the session order.
    for (const auto &[order, keys] : keyOrders) {
        const CampaignConfig config = keyedCampaign(order);
        for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
            SCOPED_TRACE(order + " jobs " + std::to_string(jobs));
            ParallelRunConfig run;
            run.jobs = jobs;
            run.replicates = 2;
            ParallelCampaignRunner runner(config, run);
            runner.executeAll();
            EXPECT_EQ(runner.prefixesRun(), keys);
            if (jobs == 1) {
                EXPECT_EQ(runner.peakLiveCheckpoints(), 1u);
            } else {
                EXPECT_GE(runner.peakLiveCheckpoints(), 1u);
                EXPECT_LE(runner.peakLiveCheckpoints(),
                          std::min<size_t>(jobs, keys));
            }
        }
    }
    ParallelRunConfig run;
    run.jobs = 3;
    run.checkpoint = false;
    ParallelCampaignRunner runner(microCampaign(), run);
    runner.execute();
    EXPECT_EQ(runner.peakLiveCheckpoints(), 0u);
    EXPECT_EQ(runner.prefixesRun(), 0u);
}

TEST(ScheduleSingleSession, WorkersWaitForTheOnlySeal)
{
    // One session, four units, four workers: three of them find no
    // sealed unit and nothing left to seal, so they must block on the
    // seal in flight rather than exit or spin.
    CampaignConfig config = microCampaign();
    config.sessions.resize(1);
    const ScheduledRun serial = runScheduled("single", config, 1, 4, true);
    const ScheduledRun pooled = runScheduled("single", config, 4, 4, true);
    expectSweepsBitIdentical(serial.result, pooled.result);
    EXPECT_EQ(serial.traceBytes, pooled.traceBytes);
    EXPECT_EQ(serial.manifest, pooled.manifest);
    EXPECT_EQ(pooled.peakLiveCheckpoints, 1u);
}

TEST(SessionAggregateMerge, ChanMergeMatchesSequentialCounts)
{
    // merge() must pool counts exactly and keep the Summary moments
    // consistent with the observation count.
    SessionResult a;
    a.point = volt::vminPoint();
    a.runs = 10;
    a.fluence = 1e9;
    a.events.sdcSilent = 3;
    a.upsetsDetected = 40;
    SessionResult b = a;
    b.runs = 20;
    b.fluence = 3e9;
    b.events.sdcSilent = 5;
    b.upsetsDetected = 70;

    SessionAggregate sequential;
    sequential.add(a);
    sequential.add(b);

    SessionAggregate left;
    left.add(a);
    SessionAggregate right;
    right.add(b);
    left.merge(right);

    EXPECT_EQ(left.replicates, sequential.replicates);
    EXPECT_EQ(left.runs, sequential.runs);
    EXPECT_EQ(left.fluence, sequential.fluence);
    EXPECT_EQ(left.events.sdcSilent, sequential.events.sdcSilent);
    EXPECT_EQ(left.upsetsDetected, sequential.upsetsDetected);
    EXPECT_EQ(left.fitTotal.count(), sequential.fitTotal.count());
    EXPECT_DOUBLE_EQ(left.fitTotal.mean(), sequential.fitTotal.mean());
    EXPECT_NEAR(left.fitTotal.variance(),
                sequential.fitTotal.variance(),
                1e-9 * (1.0 + sequential.fitTotal.variance()));
}

} // namespace
} // namespace xser::core
