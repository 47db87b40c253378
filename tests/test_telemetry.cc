/**
 * @file
 * Telemetry subsystem tests: shard recording and canonical merge, the
 * deterministic JSON writer, manifest render/parse round trips with a
 * paranoid-decode sweep, the xser-metrics passes (load, diff, CSV),
 * the progress line renderer, logger line-hook composition, and the
 * determinism gates -- aggregates, trace bytes, and manifests must be
 * bit-identical with telemetry on or off and for any worker count.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/beam_campaign.hh"
#include "core/parallel_campaign.hh"
#include "core/run_manifest.hh"
#include "metrics/metrics_tool.hh"
#include "sim/logging.hh"
#include "telemetry/json.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "trace/trace_writer.hh"

namespace xser {
namespace {

using telemetry::Counter;
using telemetry::Dist;
using telemetry::JsonWriter;
using telemetry::MetricRegistry;
using telemetry::MetricShard;
using telemetry::Phase;
using telemetry::ShardScope;

TEST(MetricShard, MergeSumsCountersDistsAndTiming)
{
    MetricRegistry registry(2);
    {
        const ShardScope scope(&registry.shard(0));
        telemetry::count(Counter::EdacCorrected, 3);
        telemetry::count(Counter::BeamArrivals);
        telemetry::distAdd(Dist::RunsPerUnit, 2.0);
        registry.shard(0).phaseSeconds[
            static_cast<size_t>(Phase::Prefix)] = 0.25;
        registry.shard(0).unitsExecuted = 4;
    }
    {
        const ShardScope scope(&registry.shard(1));
        telemetry::count(Counter::EdacCorrected, 2);
        telemetry::distAdd(Dist::RunsPerUnit, 3.0);
        registry.shard(1).phaseSeconds[
            static_cast<size_t>(Phase::Prefix)] = 0.5;
        registry.shard(1).unitsExecuted = 6;
    }
    const MetricShard merged = registry.merged();
    EXPECT_EQ(merged.counters[
                  static_cast<size_t>(Counter::EdacCorrected)], 5u);
    EXPECT_EQ(merged.counters[
                  static_cast<size_t>(Counter::BeamArrivals)], 1u);
    EXPECT_EQ(merged.dists[
                  static_cast<size_t>(Dist::RunsPerUnit)].total(), 2u);
    EXPECT_DOUBLE_EQ(
        merged.phaseSeconds[static_cast<size_t>(Phase::Prefix)], 0.75);
    EXPECT_EQ(merged.unitsExecuted, 10u);
}

TEST(MetricShard, ShardScopeRestoresThePreviousShard)
{
    ASSERT_EQ(telemetry::activeShard(), nullptr);
    MetricShard outer;
    MetricShard inner;
    {
        const ShardScope a(&outer);
        EXPECT_EQ(telemetry::activeShard(), &outer);
        {
            const ShardScope b(&inner);
            EXPECT_EQ(telemetry::activeShard(), &inner);
        }
        EXPECT_EQ(telemetry::activeShard(), &outer);
    }
    EXPECT_EQ(telemetry::activeShard(), nullptr);
}

TEST(MetricShard, RecordingWithoutAShardIsANoOp)
{
    ASSERT_EQ(telemetry::activeShard(), nullptr);
    // Must neither crash nor record anywhere.
    telemetry::count(Counter::ScrubPasses, 7);
    telemetry::distAdd(Dist::ErrorEventsPerUnit, 1.0);
    {
        const telemetry::ScopedPhase phase(Phase::Merge);
    }
    SUCCEED();
}

TEST(JsonWriterTest, EmitsTheExactExpectedDocument)
{
    JsonWriter json;
    json.beginObject();
    json.member("name", "xser");
    json.member("count", static_cast<uint64_t>(3));
    json.member("ok", true);
    json.beginObject("inner");
    json.member("ratio", 0.5);
    json.endObject();
    json.beginArray("list");
    json.value(static_cast<int64_t>(-1));
    json.value("two");
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.take(),
              "{\n"
              "  \"name\": \"xser\",\n"
              "  \"count\": 3,\n"
              "  \"ok\": true,\n"
              "  \"inner\": {\n"
              "    \"ratio\": 0.5\n"
              "  },\n"
              "  \"list\": [\n"
              "    -1,\n"
              "    \"two\"\n"
              "  ]\n"
              "}\n");
}

TEST(JsonWriterTest, FormatDoubleRoundTripsExactly)
{
    const double values[] = {0.0,  1.0,        0.1,   1.0 / 3.0,
                             1e300, 4.9e-324,  -2.5,  142.28};
    for (const double value : values) {
        const std::string text = JsonWriter::formatDouble(value);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), value)
            << "rendering: " << text;
    }
    // Non-finite values have no JSON literal; they clamp to null.
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 0.0), "null");
}

TEST(JsonWriterTest, QuoteEscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::quote("a\"b\\c\nd"),
              "\"a\\\"b\\\\c\\nd\"");
}

/** A small but fully populated manifest for the decode tests. */
std::string
sampleManifest(uint64_t edac_corrected = 41)
{
    MetricRegistry registry(2);
    {
        const ShardScope scope(&registry.shard(0));
        telemetry::count(Counter::EdacCorrected, edac_corrected);
        telemetry::count(Counter::UnitsCompleted, 8);
        telemetry::distAdd(Dist::RunsPerUnit, 5.0);
    }
    core::ManifestRunInfo info;
    info.tool = "test";
    info.configHash = 0xabcdef;
    info.seed = 0x5e5510ULL;
    info.scale = 0.02;
    info.sessions = 4;
    info.replicates = 2;
    return core::renderRunManifest(info, {}, &registry, 2, 1.5);
}

TEST(Manifest, RenderParsesBackWithSchemaAndCounters)
{
    const std::string text = sampleManifest();
    const telemetry::ParsedJson parsed = telemetry::parseJson(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    const telemetry::JsonValue *schema = parsed.root.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, telemetry::manifestSchema);

    const telemetry::JsonValue *version =
        parsed.root.find("schema_version");
    ASSERT_NE(version, nullptr);
    EXPECT_EQ(version->number,
              static_cast<double>(telemetry::manifestSchemaVersion));

    const telemetry::JsonValue *counters =
        parsed.root.find("counters");
    ASSERT_NE(counters, nullptr);
    const telemetry::JsonValue *edac =
        counters->find("edac_corrected");
    ASSERT_NE(edac, nullptr);
    EXPECT_EQ(edac->number, 41.0);

    // Wall-clock data is confined to the quarantined section.
    ASSERT_NE(parsed.root.find(telemetry::manifestTimingSection),
              nullptr);
}

TEST(Manifest, RenderIsByteStableAcrossCalls)
{
    EXPECT_EQ(sampleManifest(), sampleManifest());
}

TEST(Manifest, ParserSurvivesTruncationAtEveryByte)
{
    const std::string text = sampleManifest();
    size_t accepted = 0;
    for (size_t cut = 0; cut < text.size(); ++cut) {
        const telemetry::ParsedJson parsed =
            telemetry::parseJson(text.substr(0, cut));
        if (parsed.ok) {
            ++accepted;
            // Only the prefix missing the trailing newline is still a
            // complete document.
            EXPECT_GE(cut + 1, text.size());
        } else {
            EXPECT_FALSE(parsed.error.empty());
        }
    }
    EXPECT_LE(accepted, 1u);
}

TEST(Manifest, ParserSurvivesSingleByteCorruption)
{
    const std::string text = sampleManifest();
    for (size_t pos = 0; pos < text.size(); ++pos) {
        std::string mutant = text;
        mutant[pos] ^= 0x5a;
        // Must never crash; ok or not is corruption-dependent.
        const telemetry::ParsedJson parsed =
            telemetry::parseJson(mutant);
        if (!parsed.ok) {
            EXPECT_FALSE(parsed.error.empty());
        }
    }
}

TEST(Manifest, ParserRejectsDeepNestingAndTrailingGarbage)
{
    const std::string deep(100, '[');
    EXPECT_FALSE(telemetry::parseJson(deep).ok);
    EXPECT_FALSE(telemetry::parseJson("{} trailing").ok);
    EXPECT_FALSE(telemetry::parseJson("").ok);
}

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

TEST(MetricsTool, LoadRejectsMissingFileBadSchemaAndBadVersion)
{
    const metricstool::ManifestFile missing =
        metricstool::loadManifest(::testing::TempDir() +
                                  "does-not-exist.json");
    EXPECT_FALSE(missing.ok);
    EXPECT_FALSE(missing.error.empty());

    const metricstool::ManifestFile wrong_schema =
        metricstool::loadManifest(writeTempFile(
            "wrong-schema.json",
            "{\"schema\": \"not-a-manifest\", \"schema_version\": 1}\n"));
    EXPECT_FALSE(wrong_schema.ok);

    const metricstool::ManifestFile wrong_version =
        metricstool::loadManifest(writeTempFile(
            "wrong-version.json",
            "{\"schema\": \"xser-run-manifest\", "
            "\"schema_version\": 999}\n"));
    EXPECT_FALSE(wrong_version.ok);

    const metricstool::ManifestFile good = metricstool::loadManifest(
        writeTempFile("good.json", sampleManifest()));
    EXPECT_TRUE(good.ok) << good.error;
}

metricstool::ManifestFile
parsedManifest(const std::string &text)
{
    const telemetry::ParsedJson parsed = telemetry::parseJson(text);
    metricstool::ManifestFile file;
    file.ok = parsed.ok;
    file.error = parsed.error;
    file.root = parsed.root;
    return file;
}

TEST(MetricsTool, DiffSkipsTimingByDefaultAndSeesItWithAll)
{
    // Same deterministic payload; the timing sections differ because
    // renderRunManifest is called with different jobs/elapsed.
    MetricRegistry registry(1);
    core::ManifestRunInfo info;
    info.tool = "test";
    const metricstool::ManifestFile a = parsedManifest(
        core::renderRunManifest(info, {}, &registry, 1, 1.0));
    const metricstool::ManifestFile b = parsedManifest(
        core::renderRunManifest(info, {}, &registry, 8, 9.0));

    bool identical = false;
    metricstool::diffManifests(a, b, false, identical);
    EXPECT_TRUE(identical);

    metricstool::diffManifests(a, b, true, identical);
    EXPECT_FALSE(identical);
}

TEST(MetricsTool, DiffReportsACounterMismatch)
{
    const metricstool::ManifestFile a =
        parsedManifest(sampleManifest(41));
    const metricstool::ManifestFile b =
        parsedManifest(sampleManifest(42));
    bool identical = true;
    const std::string report =
        metricstool::diffManifests(a, b, false, identical);
    EXPECT_FALSE(identical);
    EXPECT_NE(report.find("edac_corrected"), std::string::npos);
}

TEST(MetricsTool, CsvFlattensScalars)
{
    const metricstool::ManifestFile file =
        parsedManifest(sampleManifest(41));
    const std::string csv = metricstool::toCsv(file);
    EXPECT_NE(csv.find("counters.edac_corrected,41"),
              std::string::npos);
    EXPECT_NE(csv.find("schema,xser-run-manifest"),
              std::string::npos);
}

TEST(ProgressLine, RenderIsPureAndFormatsRateAndEta)
{
    const std::string line = telemetry::ProgressMeter::renderLine(
        "campaign", 25, 100, 5.0);
    EXPECT_NE(line.find("campaign 25/100 units (25%)"),
              std::string::npos);
    EXPECT_NE(line.find("5.00 units/s"), std::string::npos);
    EXPECT_NE(line.find("ETA 15s"), std::string::npos);

    // Finished work drops the ETA; zero totals never divide by zero.
    const std::string done = telemetry::ProgressMeter::renderLine(
        "campaign", 100, 100, 5.0);
    EXPECT_EQ(done.find("ETA"), std::string::npos);
    const std::string empty =
        telemetry::ProgressMeter::renderLine("x", 0, 0, 0.0);
    EXPECT_NE(empty.find("0/0"), std::string::npos);
}

int lineHookCalls = 0;
void countingLineHook() { ++lineHookCalls; }

TEST(ProgressLine, LoggerRunsTheLineHookBeforeMessages)
{
    Logger &logger = Logger::global();
    const LogLevel saved = logger.level();
    logger.setLevel(LogLevel::Warn);
    logger.setLineHook(&countingLineHook);
    lineHookCalls = 0;

    warn("telemetry line-hook test (expected output)");
    EXPECT_EQ(lineHookCalls, 1);

    // Suppressed messages never reach the hook -- Quiet wins over the
    // progress line just as it wins over --progress.
    logger.setLevel(LogLevel::Quiet);
    warn("suppressed");
    inform("suppressed");
    EXPECT_EQ(lineHookCalls, 1);

    logger.setLineHook(nullptr);
    logger.setLevel(saved);
}

TEST(ProgressLine, FatalSignalWipesTheMeterLine)
{
    // A live meter hooks the default-disposition fatal signals; the
    // handler's last act is an async-signal-safe erase of the progress
    // line before the default disposition is restored and the signal
    // re-raised -- the process still dies by SIGTERM, but without a
    // half-drawn meter left on the terminal.
    EXPECT_EXIT(
        {
            telemetry::ProgressMeter meter;
            meter.begin("campaign", 4);
            meter.tick(1);
            std::raise(SIGTERM);
        },
        testing::KilledBySignal(SIGTERM), "\x1b\\[K\r\x1b\\[K");
}

/** Fast-but-real campaign (mirrors test_trace.cc). */
core::CampaignConfig
tinyCampaign(uint64_t seed = 0x5e5510ULL)
{
    core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(0.02, seed);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 6;
        session.maxFluence = 2e9;
        session.warmupRounds = 2;
    }
    return config;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

struct CampaignOutput {
    core::ReplicatedCampaignResult result;
    std::string traceBytes;
};

CampaignOutput
runCampaign(unsigned jobs, bool metrics, const std::string &tag,
            MetricRegistry *registry_out = nullptr)
{
    const std::string path =
        ::testing::TempDir() + "telemetry-" + tag + ".xtrace";
    core::ParallelRunConfig run;
    run.jobs = jobs;
    run.replicates = 2;
    MetricRegistry registry(jobs);
    if (metrics)
        run.metrics = registry_out != nullptr ? registry_out : &registry;
    trace::TraceWriter writer(path);
    core::ParallelCampaignRunner runner(tinyCampaign(), run);
    CampaignOutput out;
    out.result = runner.executeAll(&writer);
    out.traceBytes = readFileBytes(path);
    return out;
}

void
expectAggregatesIdentical(const core::ReplicatedCampaignResult &a,
                          const core::ReplicatedCampaignResult &b)
{
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (size_t s = 0; s < a.sessions.size(); ++s) {
        const core::SessionAggregate &x = a.sessions[s];
        const core::SessionAggregate &y = b.sessions[s];
        EXPECT_EQ(x.runs, y.runs);
        EXPECT_EQ(x.fluence, y.fluence);
        EXPECT_EQ(x.upsetsDetected, y.upsetsDetected);
        EXPECT_EQ(x.rawUpsetEvents, y.rawUpsetEvents);
        EXPECT_EQ(x.events.total(), y.events.total());
        EXPECT_EQ(x.fitTotal.mean(), y.fitTotal.mean());
        EXPECT_EQ(x.fitTotal.variance(), y.fitTotal.variance());
    }
}

TEST(TelemetryDeterminism, MetricsOnOffBitIdentical)
{
    // The core telemetry contract: enabling metrics collection must
    // not perturb the simulation -- same aggregates, same trace bytes.
    const CampaignOutput off = runCampaign(2, false, "off");
    const CampaignOutput on = runCampaign(2, true, "on");
    ASSERT_FALSE(off.traceBytes.empty());
    EXPECT_EQ(off.traceBytes, on.traceBytes);
    expectAggregatesIdentical(off.result, on.result);
}

metricstool::ManifestFile
manifestForJobs(unsigned jobs)
{
    MetricRegistry registry(jobs);
    const CampaignOutput out = runCampaign(
        jobs, true, "jobs" + std::to_string(jobs), &registry);
    core::ManifestRunInfo info;
    info.tool = "test";
    info.configHash = core::campaignConfigHash(tinyCampaign());
    info.seed = 0x5e5510ULL;
    info.sessions =
        static_cast<unsigned>(out.result.sessions.size());
    info.replicates = 2;
    return parsedManifest(core::renderRunManifest(
        info, out.result.sessions, &registry, jobs, 0.0));
}

TEST(TelemetryDeterminism, ManifestsEqualAcrossWorkerCounts)
{
    const metricstool::ManifestFile jobs1 = manifestForJobs(1);
    const metricstool::ManifestFile jobs4 = manifestForJobs(4);
    ASSERT_TRUE(jobs1.ok) << jobs1.error;
    ASSERT_TRUE(jobs4.ok) << jobs4.error;
    bool identical = false;
    const std::string report =
        metricstool::diffManifests(jobs1, jobs4, false, identical);
    EXPECT_TRUE(identical) << report;
}

} // namespace
} // namespace xser
