/**
 * @file
 * The benchmark's probe program. It links the xser library and drives
 * its public functions from outside, so the benchmark can time the
 * pieces a campaign is made of without instrumenting src/.
 *
 *   perfbench_probe setup  --scale F --seed S --jobs J
 *       Run a campaign's seed-independent phase (one golden prefix per
 *       session, sealed into a checkpoint) on J threads, exactly as
 *       ParallelCampaignRunner's phase 1 does, then print "ready".
 *
 *   perfbench_probe traced --scale F --seed S --jobs J --replicates R
 *                          --dir D
 *       Re-enact `xser campaign` (checkpoint on) through TestSession,
 *       the checkpoint envelope and the report renderers, recording a
 *       span around every call into a module. Writes D/report.txt and
 *       D/results.csv (byte-identical to the CLI's), D/manifest.json
 *       (the run manifest, telemetry on) and D/spans.json.
 *
 *   perfbench_probe layers --seed S
 *       Time single public functions of the workloads, mem, rad and
 *       ecc modules on fresh objects; print one JSON object.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hh"
#include "core/beam_campaign.hh"
#include "core/calibration.hh"
#include "core/campaign_report.hh"
#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "core/report_export.hh"
#include "core/run_manifest.hh"
#include "core/shard_executor.hh"
#include "core/test_session.hh"
#include "cpu/xgene2_platform.hh"
#include "ecc/secded.hh"
#include "rad/beam_source.hh"
#include "rad/cross_section_model.hh"
#include "rad/mbu_model.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "telemetry/metrics.hh"
#include "telemetry/stopwatch.hh"
#include "workloads/workload.hh"

namespace {

using namespace xser;
using telemetry::monotonicNanos;

/** One timed call: a name, an interval, the span that caused it. */
struct Span {
    std::string name;
    uint64_t start = 0;
    uint64_t end = 0;
    int64_t id = 0;
    int64_t parent = -1;
    int64_t unit = -1;  ///< campaign unit index, -1 outside units
    unsigned lane = 0;  ///< thread that recorded it
};

/**
 * In-memory span store with one vector per thread lane, so recording
 * never takes a lock; written out once the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(unsigned lanes) : lanes_(lanes) {}

    size_t begin(unsigned lane, const char *name, int64_t parent,
                 int64_t unit)
    {
        Span span;
        span.name = name;
        span.id = nextId_.fetch_add(1, std::memory_order_relaxed);
        span.parent = parent;
        span.unit = unit;
        span.lane = lane;
        span.start = monotonicNanos();
        lanes_[lane].push_back(std::move(span));
        return lanes_[lane].size() - 1;
    }

    void end(unsigned lane, size_t index)
    {
        lanes_[lane][index].end = monotonicNanos();
    }

    int64_t id(unsigned lane, size_t index) const
    {
        return lanes_[lane][index].id;
    }

    std::string toJson(uint64_t origin) const
    {
        std::string out = "{\"spans\": [\n";
        bool first = true;
        for (const auto &lane : lanes_) {
            for (const Span &span : lane) {
                out += msg(first ? "" : ",\n", "{\"name\": \"", span.name,
                           "\", \"start\": ", span.start - origin,
                           ", \"end\": ", span.end - origin,
                           ", \"id\": ", span.id,
                           ", \"parent\": ", span.parent,
                           ", \"unit\": ", span.unit,
                           ", \"lane\": ", span.lane, "}");
                first = false;
            }
        }
        return out + "\n]}\n";
    }

  private:
    std::vector<std::vector<Span>> lanes_;
    std::atomic<int64_t> nextId_{0};
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, unsigned lane, const char *name,
               int64_t parent, int64_t unit = -1)
        : tracer_(tracer), lane_(lane),
          index_(tracer.begin(lane, name, parent, unit))
    {
    }
    ~ScopedSpan() { tracer_.end(lane_, index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return tracer_.id(lane_, index_); }

  private:
    Tracer &tracer_;
    unsigned lane_;
    size_t index_;
};

/**
 * The runner's atomic-cursor pool: min(jobs, n) threads, inline on the
 * caller when that is one. task(lane, worker_index, item) -- lane 0 is
 * the calling thread, pool thread w records on lane w + 1.
 */
void
runPool(unsigned jobs, size_t n,
        const std::function<void(unsigned, unsigned, size_t)> &task)
{
    const size_t workers = std::min<size_t>(jobs, n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            task(0, 0, i);
        return;
    }
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w]() {
            for (;;) {
                const size_t index =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (index >= n)
                    return;
                task(static_cast<unsigned>(w + 1),
                     static_cast<unsigned>(w), index);
            }
        });
    }
    for (auto &thread : pool)
        thread.join();
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        fatal(msg("cannot write ", path));
}

int
cmdSetup(const cli::Args &args)
{
    const double scale = args.getDouble("scale", 0.001);
    const uint64_t seed = args.getUint("seed", 1);
    const unsigned jobs = args.getJobs("jobs", 1);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale, seed);
    const core::ShardExecutor executor(config, seed, true);
    std::vector<std::vector<uint8_t>> checkpoints(config.sessions.size());
    runPool(jobs, checkpoints.size(),
            [&](unsigned, unsigned, size_t session) {
                checkpoints[session] = executor.sealPrefix(session);
            });
    uint64_t bytes = 0;
    for (const auto &checkpoint : checkpoints)
        bytes += checkpoint.size();
    std::printf("ready %llu\n", static_cast<unsigned long long>(bytes));
    std::fflush(stdout);
    return 0;
}

int
cmdTraced(const cli::Args &args)
{
    const uint64_t origin = monotonicNanos();
    const double scale = args.getDouble("scale", 0.001);
    const uint64_t seed = args.getUint("seed", 1);
    const unsigned jobs = args.getJobs("jobs", 1);
    const unsigned replicates =
        static_cast<unsigned>(args.getUint("replicates", 1));
    const std::string dir = args.get("dir", ".");
    if (replicates == 0)
        fatal("--replicates must be at least 1");

    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(scale, seed);
    const size_t sessions = config.sessions.size();
    const size_t units = sessions * replicates;
    const uint64_t config_hash = core::campaignConfigHash(config);
    telemetry::MetricRegistry registry(jobs);
    Tracer tracer(jobs + 1);

    core::ReplicatedCampaignResult sweep;
    std::string report;
    std::string csv;
    {
        ScopedSpan campaign(tracer, 0, "bench.campaign", -1);
        const telemetry::ShardScope caller(&registry.shard(0));

        // Phase 1: one golden prefix per session, sealed once.
        std::vector<std::vector<uint8_t>> checkpoints(sessions);
        {
            ScopedSpan phase(tracer, 0, "bench.phase1", campaign.id());
            const int64_t parent = phase.id();
            runPool(jobs, sessions, [&](unsigned lane, unsigned worker,
                                        size_t session) {
                const telemetry::ShardScope scope(
                    &registry.shard(worker));
                const int64_t unit = static_cast<int64_t>(session);
                ScopedSpan task(tracer, lane, "bench.prefix_task", parent,
                                unit);
                std::unique_ptr<cpu::XGene2Platform> platform;
                std::unique_ptr<core::TestSession> prefix;
                {
                    ScopedSpan span(tracer, lane, "cpu.platform",
                                    task.id(), unit);
                    platform = std::make_unique<cpu::XGene2Platform>(
                        config.platform);
                    prefix = std::make_unique<core::TestSession>(
                        platform.get(), config.sessions[session]);
                }
                {
                    ScopedSpan span(tracer, lane, "core.prefix",
                                    task.id(), unit);
                    prefix->runPrefix();
                }
                {
                    ScopedSpan span(tracer, lane, "core.snapshot_encode",
                                    task.id(), unit);
                    SnapshotWriter writer;
                    prefix->snapshotPrefix(writer);
                    checkpoints[session] = core::sealCheckpoint(
                        static_cast<uint32_t>(session), config_hash,
                        writer.take());
                }
                // The counters ShardExecutor::sealPrefix records.
                telemetry::count(telemetry::Counter::SessionsPrefixed);
                telemetry::distAdd(
                    telemetry::Dist::CheckpointKilobytes,
                    static_cast<double>(checkpoints[session].size()) /
                        1024.0);
                ScopedSpan span(tracer, lane, "cpu.platform", task.id(),
                                unit);
                prefix.reset();
                platform.reset();
            });
        }

        // Phase 2: every (session, replicate) continuation, forked.
        std::vector<core::SessionResult> slots(units);
        {
            ScopedSpan phase(tracer, 0, "bench.phase2", campaign.id());
            const int64_t parent = phase.id();
            runPool(jobs, units, [&](unsigned lane, unsigned worker,
                                     size_t index) {
                const telemetry::ShardScope scope(
                    &registry.shard(worker));
                const size_t replicate = index / sessions;
                const size_t session = index % sessions;
                const int64_t unit = static_cast<int64_t>(index);
                const uint64_t begin_nanos = monotonicNanos();
                ScopedSpan task(tracer, lane, "bench.unit", parent, unit);
                core::SessionConfig session_config =
                    config.sessions[session];
                if (replicate > 0)
                    session_config.seed =
                        deriveStreamSeed(seed, session, replicate);
                std::unique_ptr<cpu::XGene2Platform> platform;
                std::unique_ptr<core::TestSession> run;
                {
                    ScopedSpan span(tracer, lane, "cpu.platform",
                                    task.id(), unit);
                    platform = std::make_unique<cpu::XGene2Platform>(
                        config.platform);
                    run = std::make_unique<core::TestSession>(
                        platform.get(), session_config);
                }
                {
                    ScopedSpan span(tracer, lane, "core.snapshot_restore",
                                    task.id(), unit);
                    const core::CheckpointView view =
                        core::openCheckpoint(checkpoints[session]);
                    if (!view.ok)
                        fatal(msg("checkpoint for session ", session,
                                  " refused: ", view.error));
                    SnapshotReader reader(view.payload, view.payloadSize);
                    run->restorePrefix(reader);
                    if (!reader.atEnd())
                        fatal("checkpoint payload not fully consumed");
                }
                {
                    ScopedSpan span(tracer, lane, "core.continuation",
                                    task.id(), unit);
                    slots[index] = run->runContinuation();
                }
                // The counters ShardExecutor::runUnitRecorded records.
                const core::SessionResult &result = slots[index];
                ++telemetry::activeShard()->unitsExecuted;
                telemetry::distAdd(
                    telemetry::Dist::UnitSeconds,
                    static_cast<double>(monotonicNanos() - begin_nanos) *
                        1e-9);
                telemetry::count(telemetry::Counter::UnitsCompleted);
                telemetry::distAdd(telemetry::Dist::RunsPerUnit,
                                   static_cast<double>(result.runs));
                telemetry::distAdd(
                    telemetry::Dist::ErrorEventsPerUnit,
                    static_cast<double>(result.events.total()));
                ScopedSpan span(tracer, lane, "cpu.platform", task.id(),
                                unit);
                run.reset();
                platform.reset();
            });
        }

        // Merge in canonical order and render, as the CLI does.
        ScopedSpan merge(tracer, 0, "core.merge", campaign.id());
        sweep.replicates.resize(replicates);
        for (size_t index = 0; index < units; ++index)
            sweep.replicates[index / sessions].sessions.push_back(
                std::move(slots[index]));
        sweep.sessions.resize(sessions);
        for (const auto &replicate : sweep.replicates)
            for (size_t s = 0; s < replicate.sessions.size(); ++s)
                sweep.sessions[s].add(replicate.sessions[s]);
        report = core::formatCampaignReport(sweep);
        csv = core::sessionsToCsv(sweep.replicates.front().sessions);
    }

    core::ManifestRunInfo info;
    info.tool = "xser campaign";
    info.configHash = config_hash;
    info.seed = seed;
    info.scale = scale;
    info.sessions = static_cast<unsigned>(sessions);
    info.replicates = replicates;
    writeText(dir + "/report.txt", report);
    writeText(dir + "/results.csv", csv);
    writeText(dir + "/manifest.json",
              core::renderRunManifest(info, sweep.sessions, &registry,
                                      jobs, 0.0));
    writeText(dir + "/spans.json", tracer.toJson(origin));
    return 0;
}

/* ---- layers: single public functions on fresh objects ---------------- */

double
secondsSince(uint64_t start)
{
    return static_cast<double>(monotonicNanos() - start) * 1e-9;
}

/** Median of a small sample (copies; the sample is a handful). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int
cmdLayers(const cli::Args &args)
{
    const uint64_t seed = args.getUint("seed", 1);
    const core::CampaignConfig config =
        core::BeamCampaign::paperCampaign(0.001, seed);
    const core::SessionConfig &session = config.sessions.front();
    constexpr int runsPerKernel = 3;
    std::string out = "{";
    auto emit = [&out](const std::string &name, double value) {
        char digits[32];
        std::snprintf(digits, sizeof(digits), "%.17g", value);
        out += msg(out.size() > 1 ? ", " : "", "\"", name, "\": ",
                   digits);
    };

    // workloads: setUp + beam-off runs per kernel on a fresh platform.
    // The quantum hook only advances the clock (no beam, no scrub), and
    // records each quantum's simulated duration for the rad probe.
    std::vector<Tick> quanta;
    double suite_setup_s = 0.0;
    double suite_run_s = 0.0;
    uint64_t suite_accesses = 0;
    for (const std::string &name : workloads::suiteNames()) {
        cpu::XGene2Platform platform(config.platform);
        platform.applyOperatingPoint(session.point);
        mem::MemorySystem &memory = platform.memory();
        auto workload = workloads::makeWorkload(name);
        platform.setWorkloadFootprint(
            workload->traits().codeFootprintWords,
            workload->traits().tlbFootprintEntries);
        bool record = false;
        auto quantum = [&]() {
            const Tick elapsed =
                platform.advanceForCycles(memory.cyclesAccumulated());
            memory.clearCycles();
            if (record)
                quanta.push_back(elapsed);
        };
        workloads::RunContext ctx(&memory, quantum,
                                  session.quantumAccesses);
        const uint64_t setup_start = monotonicNanos();
        workload->setUp(ctx);
        suite_setup_s += secondsSince(setup_start);
        std::vector<double> run_ms;
        uint64_t accesses = 0;
        for (int run = 0; run < runsPerKernel; ++run) {
            record = run == 0;
            const uint64_t before = memory.accessCount();
            const uint64_t start = monotonicNanos();
            workload->run(ctx);
            run_ms.push_back(secondsSince(start) * 1e3);
            accesses = memory.accessCount() - before;
            suite_accesses += accesses;
        }
        for (const double ms : run_ms)
            suite_run_s += ms * 1e-3;
        emit("workloads." + name + ".run_ms", median(run_ms));
        emit("workloads." + name + ".accesses_per_run",
             static_cast<double>(accesses));
    }
    emit("workloads.ns_per_access",
         suite_run_s * 1e9 / static_cast<double>(suite_accesses));
    emit("workloads.setup_s", suite_setup_s);

    // mem: word accesses on a fresh hierarchy.
    {
        cpu::XGene2Platform platform(config.platform);
        mem::MemorySystem &memory = platform.memory();
        const size_t line = memory.config().lineBytes;
        const mem::Addr hot = memory.allocate(line, "perfbench.hot");
        constexpr int hits = 2'000'000;
        uint64_t sink = memory.readWord(0, hot);
        uint64_t start = monotonicNanos();
        for (int i = 0; i < hits; ++i)
            sink += memory.readWord(0, hot);
        emit("mem.read_ns_l1hit", secondsSince(start) * 1e9 / hits);

        // One word per line over four times the L3: every read of the
        // second pass misses to DRAM.
        const size_t region = 4 * memory.config().l3Bytes;
        const mem::Addr base = memory.allocate(region, "perfbench.stream");
        const size_t lines = region / line;
        for (size_t i = 0; i < lines; ++i)
            sink += memory.readWord(0, base + i * line);
        start = monotonicNanos();
        for (size_t i = 0; i < lines; ++i)
            sink += memory.readWord(0, base + i * line);
        emit("mem.read_ns_stream",
             secondsSince(start) * 1e9 / static_cast<double>(lines));

        // Cores 0 and 2 sit on different L2 pairs: each write finds
        // the line in the other pair's L2, so every one snoops.
        constexpr int writes = 400'000;
        const mem::Addr shared = memory.allocate(line, "perfbench.shared");
        memory.writeWord(0, shared, 1);
        start = monotonicNanos();
        for (int i = 0; i < writes; ++i)
            memory.writeWord(i % 2 == 0 ? 2u : 0u, shared,
                             static_cast<uint64_t>(i));
        emit("mem.write_ns_shared", secondsSince(start) * 1e9 / writes);
        if (sink == 0x5e5510ULL)
            std::printf(" ");  // keep the reads observable
    }

    // mem: snapshot / restore / flush of a hierarchy holding the whole
    // suite's datasets (the state a checkpoint carries).
    {
        cpu::XGene2Platform platform(config.platform);
        platform.applyOperatingPoint(session.point);
        mem::MemorySystem &memory = platform.memory();
        workloads::RunContext ctx(&memory, {}, session.quantumAccesses);
        std::vector<std::unique_ptr<workloads::Workload>> suite =
            workloads::makeSuite();
        for (auto &workload : suite)
            workload->setUp(ctx);
        uint64_t start = monotonicNanos();
        SnapshotWriter writer;
        memory.snapshot(writer);
        const std::vector<uint8_t> bytes = writer.take();
        emit("mem.snapshot_s", secondsSince(start));
        emit("mem.snapshot_bytes", static_cast<double>(bytes.size()));
        cpu::XGene2Platform target(config.platform);
        start = monotonicNanos();
        SnapshotReader reader(bytes);
        target.memory().restore(reader);
        emit("mem.restore_s", secondsSince(start));
        start = monotonicNanos();
        memory.flushAll();
        emit("mem.flush_s", secondsSince(start));
    }

    // rad: one session's exposure (warm-up rounds plus one measured
    // round) replayed quantum by quantum through BeamSource::advance;
    // the median of seven consecutive exposures.
    {
        cpu::XGene2Platform platform(config.platform);
        const core::SessionConfig &vmin = config.sessions[2];
        platform.applyOperatingPoint(vmin.point);
        rad::CrossSectionModel xsection;
        const auto &cal = core::sessionCalibration();
        auto tune = [&xsection](mem::CacheLevel level, double sigma0) {
            rad::ArraySensitivity s = xsection.sensitivity(level);
            s.sigma0Cm2PerBit = sigma0;
            xsection.setSensitivity(level, s);
        };
        tune(mem::CacheLevel::Tlb, cal.sigma0Tlb);
        tune(mem::CacheLevel::L1, cal.sigma0L1);
        tune(mem::CacheLevel::L2, cal.sigma0L2);
        tune(mem::CacheLevel::L3, cal.sigma0L3);
        rad::MbuModel mbu;
        rad::BeamConfig beam_config = vmin.beam;
        beam_config.seed ^= seed;
        rad::BeamSource beam(beam_config, &xsection, &mbu,
                             platform.memory().beamTargets());
        beam.setVoltages(vmin.point.pmdVolts(), vmin.point.socVolts());
        Tick suite_ticks = 0;
        for (const Tick elapsed : quanta)
            suite_ticks += elapsed;
        beam.setTimeScale(
            vmin.fluencePerRun *
            static_cast<double>(workloads::suiteNames().size()) /
            (beam_config.environment.neutronsPerCm2PerSecond *
             std::max(ticks::toSeconds(suite_ticks), 1e-9)));
        std::vector<double> exposures;
        for (int repeat = 0; repeat < 7; ++repeat) {
            const uint64_t start = monotonicNanos();
            for (unsigned round = 0; round <= vmin.warmupRounds; ++round)
                for (const Tick elapsed : quanta)
                    beam.advance(elapsed);
            exposures.push_back(secondsSince(start));
        }
        emit("rad.advance_s", median(exposures));
    }

    // ecc: SECDED decode of stored words, one in sixteen with a
    // single-bit flip (the corrected path), the rest clean.
    {
        constexpr int words = 4'000'000;
        std::vector<uint64_t> data(4096);
        std::vector<uint8_t> check(data.size());
        Rng rng(seed);
        for (size_t i = 0; i < data.size(); ++i) {
            data[i] = rng.nextU64();
            check[i] = ecc::SecdedCodec::encode(data[i]);
            if (i % 16 == 0)
                data[i] ^= 1ULL << (i % 64);
        }
        uint64_t sink = 0;
        const uint64_t start = monotonicNanos();
        for (int i = 0; i < words; ++i) {
            const size_t k = static_cast<size_t>(i) % data.size();
            sink ^= ecc::SecdedCodec::decode(data[k], check[k]).data;
        }
        emit("ecc.secded_decode_ns", secondsSince(start) * 1e9 / words);
        if (sink == 0x5e5510ULL)
            std::printf(" ");
    }

    std::printf("%s}\n", out.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const cli::Args args = cli::Args::parse(argc, argv);
    Logger::global().setLevel(LogLevel::Quiet);
    if (args.command() == "setup")
        return cmdSetup(args);
    if (args.command() == "traced")
        return cmdTraced(args);
    if (args.command() == "layers")
        return cmdLayers(args);
    std::fprintf(stderr,
                 "usage: perfbench_probe setup|traced|layers [options]\n");
    return 2;
}
