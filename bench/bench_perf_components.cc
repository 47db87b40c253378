/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: the
 * SECDED codec, parity, SRAM reads, cache word access and line
 * allocation, the full hierarchy walk (warm, streaming, and missing to
 * DRAM), owned-line and shared-line L2 writes, a dataset fill through
 * store runs, the front-end touch quantum, the checkpoint checksum, RNG
 * distributions, beam advancement, and the parallel campaign engine at
 * 1..8 worker threads. These guard the performance budget that makes
 * paper-scale campaigns tractable.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/checkpoint.hh"
#include "core/parallel_campaign.hh"
#include "cpu/core.hh"
#include "cpu/xgene2_platform.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "rad/beam_source.hh"
#include "sim/rng.hh"
#include "workloads/kernels.hh"

namespace {

using namespace xser;

void
BM_SecdedEncode(benchmark::State &state)
{
    uint64_t value = 0x0123456789abcdefULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecc::SecdedCodec::encode(value));
        value = value * 6364136223846793005ULL + 1;
    }
}
BENCHMARK(BM_SecdedEncode);

void
BM_SecdedDecodeClean(benchmark::State &state)
{
    const uint64_t value = 0x0123456789abcdefULL;
    const uint8_t check = ecc::SecdedCodec::encode(value);
    for (auto _ : state)
        benchmark::DoNotOptimize(ecc::SecdedCodec::decode(value, check));
}
BENCHMARK(BM_SecdedDecodeClean);

void
BM_SecdedDecodeSingleError(benchmark::State &state)
{
    const uint64_t value = 0x0123456789abcdefULL;
    const uint8_t check = ecc::SecdedCodec::encode(value);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ecc::SecdedCodec::decode(value ^ 0x10, check));
    }
}
BENCHMARK(BM_SecdedDecodeSingleError);

void
BM_ParityCheck(benchmark::State &state)
{
    const uint64_t value = 0xfeedfacecafebeefULL;
    const uint8_t parity = ecc::ParityCodec::encode(value);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ecc::ParityCodec::check(value, parity));
    }
}
BENCHMARK(BM_ParityCheck);

void
BM_SramArrayRead(benchmark::State &state)
{
    mem::SramArray array("bench", 4096, mem::Protection::Secded);
    for (size_t i = 0; i < array.words(); ++i)
        array.write(i, i * 0x9e3779b97f4a7c15ULL);
    size_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.read(index));
        index = (index + 1) & 4095;
    }
}
BENCHMARK(BM_SramArrayRead);

void
BM_CacheReadWordHit(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::CacheConfig config;
    config.name = "bench";
    config.sizeBytes = 256 * 1024;
    config.associativity = 8;
    mem::Cache cache(config, &reporter);
    mem::LineData line;
    line.fill(42);
    for (mem::Addr addr = 0; addr < 64 * 1024; addr += 64)
        cache.allocate(addr, line, false);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.readWord(addr));
        addr = (addr + 64) & (64 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheReadWordHit);

void
BM_CacheAllocateLine(benchmark::State &state)
{
    // Streaming fills into a full L2-sized cache: every allocate evicts
    // a victim, and every other victim is dirty and read out.
    mem::EdacReporter reporter;
    mem::CacheConfig config;
    config.name = "bench";
    config.sizeBytes = 256 * 1024;
    config.associativity = 8;
    mem::Cache cache(config, &reporter);
    mem::LineData line;
    line.fill(42);
    mem::Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.allocate(addr, line, (addr & 64) != 0));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAllocateLine);

void
BM_HierarchyReadWarm(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const mem::Addr base = memory.allocate(16 * 1024, "bench");
    for (size_t i = 0; i < 2048; ++i)
        memory.writeWord(0, base + 8 * i, i);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readWord(0, base + 8 * i));
        i = (i + 1) & 2047;
    }
}
BENCHMARK(BM_HierarchyReadWarm);

void
BM_HierarchyReadStreaming(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const size_t lines = 1 << 16;  // 4 MiB: misses throughout
    const mem::Addr base = memory.allocate(lines * 64, "bench");
    size_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readWord(0, base + 64 * line));
        line = (line + 1) & (lines - 1);
    }
}
BENCHMARK(BM_HierarchyReadStreaming);

void
BM_MemoryStreamMiss(benchmark::State &state)
{
    // One word per line over four times the L3, after one warm-up
    // pass: every read misses L1, L2 and L3 and fills from DRAM,
    // evicting (dirty) lines at every level on the way.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const size_t lines = 4 * memory.config().l3Bytes / 64;
    const mem::Addr base = memory.allocate(lines * 64, "bench");
    for (size_t line = 0; line < lines; ++line)
        memory.writeWord(0, base + 64 * line, line);
    size_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(memory.readWord(0, base + 64 * line));
        line = line + 1 == lines ? 0 : line + 1;
    }
}
BENCHMARK(BM_MemoryStreamMiss);

void
BM_WriteWordL2Hit(benchmark::State &state)
{
    // Stores to 1024 lines core 0's L2 already owns (writes do not
    // allocate in L1D): the owned-line path, whose snoop is only
    // counted.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const size_t lines = 1024;
    const mem::Addr base = memory.allocate(lines * 64, "bench");
    for (size_t line = 0; line < lines; ++line)
        memory.writeWord(0, base + 64 * line, line);
    size_t line = 0;
    for (auto _ : state) {
        memory.writeWord(0, base + 64 * line, line);
        line = (line + 1) & (lines - 1);
    }
}
BENCHMARK(BM_WriteWordL2Hit);

void
BM_WriteWordShared(benchmark::State &state)
{
    // Cores on two L2 pairs take turns writing one line: every write
    // misses its own L2 and snoops in full, flushing the other pair's
    // dirty copy through L3.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    const mem::Addr shared = memory.allocate(64, "bench");
    memory.writeWord(0, shared, 1);
    uint64_t i = 0;
    for (auto _ : state) {
        memory.writeWord(i % 2 == 0 ? 2u : 0u, shared, i);
        ++i;
    }
}
BENCHMARK(BM_WriteWordShared);

void
BM_DatasetSetUp(benchmark::State &state)
{
    // CG's set-up on a fresh platform: a 12 MB dataset filled line by
    // line through store runs, then the kernel's own arrays.
    for (auto _ : state) {
        state.PauseTiming();
        auto platform = std::make_unique<cpu::XGene2Platform>();
        workloads::CgWorkload cg;
        workloads::RunContext ctx(&platform->memory(), {}, 4096);
        state.ResumeTiming();
        cg.setUp(ctx);
        benchmark::DoNotOptimize(platform->memory().accessCount());
        state.PauseTiming();
        platform.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_DatasetSetUp)->Unit(benchmark::kMillisecond);

void
BM_FrontEndQuantum(benchmark::State &state)
{
    // One core's I-fetch and TLB touches for a 4096-access quantum
    // over footprints that are not powers of two.
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    cpu::Core core(cpu::CoreConfig{}, &memory, Rng(11));
    core.setFootprint(3000, 700);
    for (auto _ : state)
        core.driveQuantum(4096);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            4096);
}
BENCHMARK(BM_FrontEndQuantum);

void
BM_CheckpointChecksum(benchmark::State &state)
{
    // The envelope checksum over a 1 MiB payload (prefix snapshots are
    // ~62 MB, sealed once and opened once per replicate).
    std::vector<uint8_t> payload(size_t{1} << 20);
    Rng rng(7);
    for (uint8_t &byte : payload)
        byte = static_cast<uint8_t>(rng.nextU32());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::checkpointChecksum(payload.data(), payload.size()));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CheckpointChecksum);

void
BM_RngPoissonSmallMean(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.nextPoisson(0.3));
}
BENCHMARK(BM_RngPoissonSmallMean);

void
BM_ParallelCampaignUnits(benchmark::State &state)
{
    // Eight tiny independent units (4 sessions x 2 replicates) on a
    // pool sized by the benchmark argument; wall time shrinks with
    // core count while results stay bit-identical.
    const auto jobs = static_cast<unsigned>(state.range(0));
    core::CampaignConfig config = core::BeamCampaign::paperCampaign(0.01);
    for (auto &session : config.sessions) {
        session.maxErrorEvents = 4;
        session.maxFluence = 6e8;
        session.warmupRounds = 1;
    }
    core::ParallelRunConfig run;
    run.jobs = jobs;
    run.replicates = 2;
    for (auto _ : state) {
        core::ParallelCampaignRunner runner(config, run);
        benchmark::DoNotOptimize(runner.executeAll());
    }
}
BENCHMARK(BM_ParallelCampaignUnits)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void
BM_BeamAdvanceQuantum(benchmark::State &state)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(mem::MemorySystemConfig{}, &reporter);
    rad::CrossSectionModel xsection;
    rad::MbuModel mbu;
    rad::BeamConfig config;
    config.timeScale = 4e6;
    rad::BeamSource beam(config, &xsection, &mbu, memory.beamTargets());
    const Tick quantum = ticks::fromSeconds(2e-6);
    for (auto _ : state)
        beam.advance(quantum);
}
BENCHMARK(BM_BeamAdvanceQuantum);

} // namespace

BENCHMARK_MAIN();
