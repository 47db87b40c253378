/**
 * @file
 * Checkpoint/fork engine tests: envelope validation (paranoid-decode
 * style, like the .xtrace reader's), the snapshot -> restore ->
 * re-snapshot fixed-point property, fork-vs-straight-run equivalence
 * for a single session, and the campaign-level gate -- checkpoint on
 * vs off must be byte-identical in aggregates and trace bytes for any
 * worker count.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/snapshot.hh"
#include "telemetry/metrics.hh"
#include "trace/trace_writer.hh"

namespace xser::core {
namespace {

/** Two-workload session sized for the fast test loop. */
SessionConfig
tinySession(uint64_t seed = 0x5e5510ULL)
{
    SessionConfig config;
    config.workloadNames = {"EP", "IS"};
    config.maxErrorEvents = 4;
    config.maxFluence = 1e9;
    config.warmupRounds = 1;
    config.seed = seed;
    return config;
}

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
    // Bit-exact, not approximately equal: a forked continuation must
    // replay the same arithmetic as the straight-through run.
    EXPECT_EQ(a.fluence, b.fluence);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.avgPowerWatts, b.avgPowerWatts);
    ASSERT_EQ(a.perWorkload.size(), b.perWorkload.size());
    for (size_t w = 0; w < a.perWorkload.size(); ++w) {
        EXPECT_EQ(a.perWorkload[w].name, b.perWorkload[w].name);
        EXPECT_EQ(a.perWorkload[w].runs, b.perWorkload[w].runs);
        EXPECT_EQ(a.perWorkload[w].upsetsDetected,
                  b.perWorkload[w].upsetsDetected);
        EXPECT_EQ(a.perWorkload[w].fluence, b.perWorkload[w].fluence);
    }
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(CheckpointEnvelope, SealOpenRoundTrip)
{
    std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x42};
    const std::vector<uint8_t> blob =
        sealCheckpoint(3, 0x1234abcdULL, payload);
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_EQ(view.sessionIndex, 3u);
    EXPECT_EQ(view.configHash, 0x1234abcdULL);
    ASSERT_EQ(view.payloadSize, payload.size());
    EXPECT_EQ(std::vector<uint8_t>(view.payload,
                                   view.payload + view.payloadSize),
              payload);
}

TEST(CheckpointEnvelope, EmptyPayloadRoundTrips)
{
    const std::vector<uint8_t> blob = sealCheckpoint(0, 7, {});
    const CheckpointView view = openCheckpoint(blob);
    ASSERT_TRUE(view.ok) << view.error;
    EXPECT_EQ(view.payloadSize, 0u);
}

TEST(CheckpointEnvelope, RejectsTruncationAtEveryLength)
{
    const std::vector<uint8_t> blob =
        sealCheckpoint(1, 0xabcdULL, {1, 2, 3, 4, 5, 6, 7, 8});
    for (size_t cut = 0; cut < blob.size(); ++cut) {
        const std::vector<uint8_t> truncated(blob.begin(),
                                             blob.begin() + cut);
        const CheckpointView view = openCheckpoint(truncated);
        EXPECT_FALSE(view.ok) << "accepted a " << cut << "-byte prefix";
        EXPECT_FALSE(view.error.empty());
    }
}

TEST(CheckpointEnvelope, NoCorruptedByteSlipsThrough)
{
    // Every single-byte flip is either rejected outright (magic,
    // version, sizes, payload -- the checksum covers the payload) or
    // surfaces as a changed identity field (session index, config
    // hash) that the caller's cross-check refuses. Nothing decodes
    // silently to the original identity with different content.
    const std::vector<uint8_t> blob =
        sealCheckpoint(1, 0xabcdULL, {9, 8, 7, 6, 5});
    for (size_t i = 0; i < blob.size(); ++i) {
        std::vector<uint8_t> corrupted = blob;
        corrupted[i] ^= 0x20;
        const CheckpointView view = openCheckpoint(corrupted);
        if (!view.ok)
            continue;
        EXPECT_TRUE(view.sessionIndex != 1u ||
                    view.configHash != 0xabcdULL)
            << "flip in byte " << i
            << " decoded to the original identity";
    }
}

TEST(CheckpointEnvelope, ChecksumRejectsEverySingleBitFlip)
{
    // 75 bytes: two full 32-byte blocks, one tail word and three tail
    // bytes, so every path of the checksum sees a flip.
    std::vector<uint8_t> payload(75);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 11);
    const std::vector<uint8_t> blob = sealCheckpoint(2, 0x77ULL, payload);
    ASSERT_TRUE(openCheckpoint(blob).ok);
    constexpr size_t header = 40;
    // Every bit of the stored checksum and of the payload.
    for (size_t byte = header - 8; byte < blob.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> flipped = blob;
            flipped[byte] ^= static_cast<uint8_t>(1u << bit);
            const CheckpointView view = openCheckpoint(flipped);
            EXPECT_FALSE(view.ok) << "bit " << bit << " of byte " << byte;
            EXPECT_NE(view.error.find("checksum"), std::string::npos)
                << view.error;
        }
    }
}

TEST(CheckpointEnvelope, RejectsTrailingGarbage)
{
    std::vector<uint8_t> blob = sealCheckpoint(0, 1, {1, 2, 3});
    blob.push_back(0xff);
    const CheckpointView view = openCheckpoint(blob);
    EXPECT_FALSE(view.ok);
}

TEST(CheckpointEnvelope, RejectsWrongVersion)
{
    std::vector<uint8_t> blob = sealCheckpoint(0, 1, {1, 2, 3});
    blob[8] = static_cast<uint8_t>(checkpointVersion + 1);
    const CheckpointView view = openCheckpoint(blob);
    EXPECT_FALSE(view.ok);
    EXPECT_NE(view.error.find("version"), std::string::npos);
}

TEST(CheckpointRoundTrip, RestoreIsASnapshotFixedPoint)
{
    // snapshot(restore(snapshot(prefix))) == snapshot(prefix), byte
    // for byte: the serialization misses nothing the serialization
    // itself can see. (Fork equivalence below closes the remaining
    // gap: nothing *outside* the snapshot matters either.)
    const SessionConfig session_config = tinySession();
    cpu::XGene2Platform original(cpu::PlatformConfig{});
    TestSession prefix(&original, session_config);
    prefix.runPrefix();
    SnapshotWriter writer;
    prefix.snapshotPrefix(writer);
    const std::vector<uint8_t> first = writer.take();

    cpu::XGene2Platform restored(cpu::PlatformConfig{});
    TestSession adopted(&restored, session_config);
    SnapshotReader reader(first);
    adopted.restorePrefix(reader);
    EXPECT_TRUE(reader.atEnd());

    SnapshotWriter rewriter;
    adopted.snapshotPrefix(rewriter);
    EXPECT_EQ(rewriter.data(), first);
}

TEST(CheckpointRoundTrip, ForkedContinuationMatchesStraightRun)
{
    const SessionConfig session_config = tinySession();

    cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
    TestSession straight(&straight_platform, session_config);
    const SessionResult expected = straight.execute();

    cpu::XGene2Platform prefix_platform(cpu::PlatformConfig{});
    TestSession prefix(&prefix_platform, session_config);
    prefix.runPrefix();
    SnapshotWriter writer;
    prefix.snapshotPrefix(writer);
    const std::vector<uint8_t> blob = writer.take();

    cpu::XGene2Platform fork_platform(cpu::PlatformConfig{});
    TestSession fork(&fork_platform, session_config);
    SnapshotReader reader(blob);
    fork.restorePrefix(reader);
    const SessionResult actual = fork.runContinuation();

    expectSessionsBitIdentical(expected, actual);
}

TEST(CheckpointRoundTrip, OnePrefixForksDistinctSeeds)
{
    // The importance-splitting claim: one snapshot serves every
    // replicate seed, and different seeds genuinely diverge.
    cpu::XGene2Platform prefix_platform(cpu::PlatformConfig{});
    TestSession prefix(&prefix_platform, tinySession(1));
    prefix.runPrefix();
    SnapshotWriter writer;
    prefix.snapshotPrefix(writer);
    const std::vector<uint8_t> blob = writer.take();

    std::vector<SessionResult> results;
    for (const uint64_t seed : {1ULL, 2ULL}) {
        // Straight run with this seed...
        cpu::XGene2Platform straight_platform(cpu::PlatformConfig{});
        TestSession straight(&straight_platform, tinySession(seed));
        const SessionResult expected = straight.execute();
        // ...must match a fork of the seed-1 prefix under this seed.
        cpu::XGene2Platform fork_platform(cpu::PlatformConfig{});
        TestSession fork(&fork_platform, tinySession(seed));
        SnapshotReader reader(blob);
        fork.restorePrefix(reader);
        const SessionResult actual = fork.runContinuation();
        expectSessionsBitIdentical(expected, actual);
        results.push_back(actual);
    }
    EXPECT_NE(results[0].rawUpsetEvents, results[1].rawUpsetEvents);
}

/**
 * Campaign-scale gate (ctest label `slow`): checkpoint on vs off must
 * agree byte for byte -- aggregates and trace -- at jobs 1 and 8.
 */
class CheckpointForkDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        run.checkpoint = false;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        reference_ = new ReplicatedCampaignResult(runner.executeAll());
    }

    static void
    TearDownTestSuite()
    {
        delete reference_;
        reference_ = nullptr;
    }

    void
    expectMatchesReference(const ReplicatedCampaignResult &sweep)
    {
        ASSERT_EQ(sweep.replicates.size(),
                  reference_->replicates.size());
        for (size_t r = 0; r < sweep.replicates.size(); ++r) {
            const CampaignResult &a = reference_->replicates[r];
            const CampaignResult &b = sweep.replicates[r];
            ASSERT_EQ(a.sessions.size(), b.sessions.size());
            for (size_t s = 0; s < a.sessions.size(); ++s) {
                SCOPED_TRACE("replicate " + std::to_string(r) +
                             " session " + std::to_string(s));
                expectSessionsBitIdentical(a.sessions[s], b.sessions[s]);
            }
        }
        ASSERT_EQ(sweep.sessions.size(), reference_->sessions.size());
        for (size_t s = 0; s < sweep.sessions.size(); ++s) {
            EXPECT_EQ(reference_->sessions[s].fitTotal.mean(),
                      sweep.sessions[s].fitTotal.mean());
            EXPECT_EQ(reference_->sessions[s].fitTotal.variance(),
                      sweep.sessions[s].fitTotal.variance());
        }
    }

    static ReplicatedCampaignResult *reference_;
};

ReplicatedCampaignResult *CheckpointForkDeterminism::reference_ = nullptr;

TEST_F(CheckpointForkDeterminism, OneWorkerMatchesUncheckpointed)
{
    ParallelRunConfig run;
    run.jobs = 1;
    run.replicates = 2;
    run.checkpoint = true;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    expectMatchesReference(runner.executeAll());
}

TEST_F(CheckpointForkDeterminism, EightWorkersMatchUncheckpointed)
{
    ParallelRunConfig run;
    run.jobs = 8;
    run.replicates = 2;
    run.checkpoint = true;
    ParallelCampaignRunner runner(tinyCampaign(), run);
    expectMatchesReference(runner.executeAll());
}

TEST_F(CheckpointForkDeterminism, TraceBytesIdenticalOnAndOff)
{
    // The strongest equality we can state: the .xtrace files -- every
    // event, timestamp, and header word -- are the same bytes whether
    // continuations were forked or prefixes replayed, at any job count.
    const std::string off_path =
        ::testing::TempDir() + "ckpt_off.xtrace";
    const std::string on_path = ::testing::TempDir() + "ckpt_on.xtrace";
    {
        ParallelRunConfig run;
        run.jobs = 1;
        run.replicates = 2;
        run.checkpoint = false;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        trace::TraceWriter writer(off_path);
        runner.executeAll(&writer);
    }
    {
        ParallelRunConfig run;
        run.jobs = 8;
        run.replicates = 2;
        run.checkpoint = true;
        ParallelCampaignRunner runner(tinyCampaign(), run);
        trace::TraceWriter writer(on_path);
        runner.executeAll(&writer);
    }
    const std::string off_bytes = readFileBytes(off_path);
    const std::string on_bytes = readFileBytes(on_path);
    ASSERT_FALSE(off_bytes.empty());
    EXPECT_EQ(off_bytes, on_bytes);
}

/** The smallest real prefix: EP only, no warm-up, two measured runs. */
SessionConfig
microSession()
{
    SessionConfig config;
    config.workloadNames = {"EP"};
    config.maxErrorEvents = 2;
    config.maxFluence = 5e8;
    config.maxRuns = 2;
    config.warmupRounds = 0;
    return config;
}

/** What sealing one session's prefix produces. */
struct SealOutcome {
    std::vector<uint8_t> payload;     ///< envelope minus its header
    telemetry::MetricShard recorded;  ///< the seal's telemetry
};

SealOutcome
sealSession(const ShardExecutor &executor, size_t session)
{
    SealOutcome out;
    std::vector<uint8_t> envelope;
    {
        const telemetry::ShardScope scope(&out.recorded);
        envelope = executor.sealPrefix(session);
    }
    const CheckpointView view = openCheckpoint(envelope);
    EXPECT_TRUE(view.ok) << view.error;
    out.payload.assign(view.payload, view.payload + view.payloadSize);
    return out;
}

void
expectSameCounts(const telemetry::MetricShard &a,
                 const telemetry::MetricShard &b)
{
    EXPECT_EQ(a.counters, b.counters);
    for (size_t d = 0; d < telemetry::numDists; ++d) {
        SCOPED_TRACE(telemetry::distName(static_cast<telemetry::Dist>(d)));
        const Histogram &x = a.dists[d];
        const Histogram &y = b.dists[d];
        EXPECT_EQ(x.total(), y.total());
        EXPECT_EQ(x.underflow(), y.underflow());
        EXPECT_EQ(x.overflow(), y.overflow());
        for (size_t bin = 0; bin < x.bins(); ++bin)
            EXPECT_EQ(x.binCount(bin), y.binCount(bin));
    }
}

TEST(PrefixKey, EveryFieldKeysThePrefixOrLeavesItUnchanged)
{
    // Sessions with equal prefix keys share one sealed prefix, so a
    // SessionConfig field that runPrefix reads but the key misses
    // would hand a session another session's prefix -- silently
    // wrong. Perturb every field in turn: either the session gets a
    // donor of its own, or sealing it yields the unperturbed payload
    // and the unperturbed prefix telemetry, byte for byte.
    trace::TraceBuffer sink(16);
    using Edit = std::function<void(SessionConfig &)>;
    const std::vector<std::pair<std::string, Edit>> edits = {
        {"pmd 930 mV", [](auto &c) { c.point.pmdMillivolts = 930.0; }},
        {"pmd 850 mV, sub-Vmin",
         [](auto &c) { c.point.pmdMillivolts = 850.0; }},
        {"soc 925 mV", [](auto &c) { c.point.socMillivolts = 925.0; }},
        {"soc 800 mV, sub-Vmin",
         [](auto &c) { c.point.socMillivolts = 800.0; }},
        {"frequency 0.9 GHz",
         [](auto &c) { c.point.frequencyHz = 0.9e9; }},
        {"frequency 1.2 GHz",
         [](auto &c) { c.point.frequencyHz = 1.2e9; }},
        {"point name Vmin", [](auto &c) { c.point.name = "Vmin"; }},
        {"point name empty", [](auto &c) { c.point.name.clear(); }},
        {"workloads IS", [](auto &c) { c.workloadNames = {"IS"}; }},
        {"workloads EP IS",
         [](auto &c) { c.workloadNames = {"EP", "IS"}; }},
        {"workloads IS EP",
         [](auto &c) { c.workloadNames = {"IS", "EP"}; }},
        {"max events 1", [](auto &c) { c.maxErrorEvents = 1; }},
        {"max events 500", [](auto &c) { c.maxErrorEvents = 500; }},
        {"max fluence 1e7", [](auto &c) { c.maxFluence = 1e7; }},
        {"max fluence 1e12", [](auto &c) { c.maxFluence = 1e12; }},
        {"max runs 1", [](auto &c) { c.maxRuns = 1; }},
        {"max runs 64", [](auto &c) { c.maxRuns = 64; }},
        {"fluence per run x2", [](auto &c) { c.fluencePerRun *= 2.0; }},
        {"fluence per run /4", [](auto &c) { c.fluencePerRun /= 4.0; }},
        {"warm-up 1", [](auto &c) { c.warmupRounds = 1; }},
        {"warm-up 8", [](auto &c) { c.warmupRounds = 8; }},
        {"beam environment NYC",
         [](auto &c) { c.beam.environment = rad::nycSeaLevel(); }},
        {"beam environment centre",
         [](auto &c) { c.beam.environment = rad::tnfBeamCenter(); }},
        {"beam time scale 2", [](auto &c) { c.beam.timeScale = 2.0; }},
        {"beam time scale 0.5", [](auto &c) { c.beam.timeScale = 0.5; }},
        {"beam seed 1", [](auto &c) { c.beam.seed = 1; }},
        {"beam seed 2", [](auto &c) { c.beam.seed = 2; }},
        {"beam skip-ahead off", [](auto &c) { c.beam.skipAhead = false; }},
        {"beam interleaving none",
         [](auto &c) { c.beam.interleaved.fill(false); }},
        {"beam interleaving all",
         [](auto &c) { c.beam.interleaved.fill(true); }},
        {"scrub L2 period x2",
         [](auto &c) { c.scrub.l2PassPeriod *= 2; }},
        {"scrub L2 period /2",
         [](auto &c) { c.scrub.l2PassPeriod /= 2; }},
        {"scrub L3 period x2",
         [](auto &c) { c.scrub.l3PassPeriod *= 2; }},
        {"scrub L3 period /2",
         [](auto &c) { c.scrub.l3PassPeriod /= 2; }},
        {"scrub off", [](auto &c) { c.scrub.enabled = false; }},
        {"scrub clock scale 0.5",
         [](auto &c) { c.scrub.clockScale = 0.5; }},
        {"scrub clock scale 2", [](auto &c) { c.scrub.clockScale = 2.0; }},
        {"scrub L2 off", [](auto &c) { c.scrub.l2Enabled = false; }},
        {"scrub L3 on", [](auto &c) { c.scrub.l3Enabled = true; }},
        {"quantum 2048", [](auto &c) { c.quantumAccesses = 2048; }},
        {"quantum 8192", [](auto &c) { c.quantumAccesses = 8192; }},
        {"seed 1", [](auto &c) { c.seed = 1; }},
        {"seed 2", [](auto &c) { c.seed = 2; }},
        {"trace sink", [&sink](auto &c) { c.traceSink = &sink; }},
    };

    CampaignConfig config;
    config.sessions = {microSession()};
    const SealOutcome base = sealSession(ShardExecutor(config, 1, true), 0);
    size_t shared = 0;
    for (const auto &[label, edit] : edits) {
        SCOPED_TRACE(label);
        config.sessions.resize(1);
        config.sessions.push_back(microSession());
        edit(config.sessions.back());
        const ShardExecutor executor(config, 1, true);
        if (executor.prefixDonor(1) != 0)
            continue;
        ++shared;
        const SealOutcome perturbed = sealSession(executor, 1);
        EXPECT_TRUE(perturbed.payload == base.payload);
        expectSameCounts(base.recorded, perturbed.recorded);
    }
    // Not vacuous: most fields are continuation-only and do share.
    EXPECT_GE(shared, 20u);
}

TEST(PrefixKey, UnitsForkFromAnEqualKeySessionsEnvelope)
{
    // One sealed prefix serves every equal-key session: a unit forked
    // from its donor's envelope equals the unit forked from its own
    // envelope and the unit that replays the whole session.
    CampaignConfig config;
    config.sessions = {microSession(), microSession()};
    config.sessions[1].point = volt::vminPoint();
    const ShardExecutor executor(config, 1, true);
    ASSERT_EQ(executor.prefixDonor(1), 0u);
    const std::vector<uint8_t> donor = executor.sealPrefix(0);
    const std::vector<uint8_t> own = executor.sealPrefix(1);
    for (const unsigned replicate : {0u, 1u}) {
        SCOPED_TRACE(replicate);
        const SessionResult shared =
            executor.runUnit(1, replicate, nullptr, &donor);
        expectSessionsBitIdentical(
            executor.runUnit(1, replicate, nullptr, &own), shared);
        expectSessionsBitIdentical(
            executor.runUnit(1, replicate, nullptr, nullptr), shared);
    }
}

} // namespace
} // namespace xser::core
