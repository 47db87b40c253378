/**
 * @file
 * Tests for the platform assembly: operating-point application, time
 * accounting, front-end touch processes, footprint clamping, and the
 * Table 1 spec dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/core.hh"
#include "cpu/xgene2_platform.hh"
#include "sim/snapshot.hh"
#include "volt/operating_point.hh"

namespace xser::cpu {
namespace {

TEST(Platform, DefaultsMatchTable1)
{
    XGene2Platform platform;
    EXPECT_EQ(platform.numCores(), 8u);
    EXPECT_EQ(platform.pmdDomain().millivolts(), 980.0);
    EXPECT_EQ(platform.socDomain().millivolts(), 950.0);
    EXPECT_EQ(platform.clock().frequency(), 2.4e9);
    const std::string spec = platform.specTable();
    for (const char *needle :
         {"Armv8", "256 KB", "8 MB", "SECDED", "Parity", "28 nm"}) {
        EXPECT_NE(spec.find(needle), std::string::npos) << needle;
    }
}

TEST(Platform, OperatingPointRoundTrip)
{
    XGene2Platform platform;
    platform.applyOperatingPoint(volt::vmin900Point());
    EXPECT_EQ(platform.pmdDomain().millivolts(), 790.0);
    EXPECT_EQ(platform.socDomain().millivolts(), 950.0);
    EXPECT_EQ(platform.clock().frequency(), 0.9e9);
    const volt::OperatingPoint point = platform.operatingPoint();
    EXPECT_EQ(point.pmdMillivolts, 790.0);
    EXPECT_EQ(point.label(), "790mV @ 900MHz");
}

TEST(Platform, AdvanceForCyclesDividesAcrossCores)
{
    XGene2Platform platform;
    const Tick before = platform.clock().now();
    const Tick elapsed = platform.advanceForCycles(8000);
    // 8000 cycles over 8 cores = 1000 cycles of wall time.
    EXPECT_EQ(elapsed, 1000 * platform.clock().period());
    EXPECT_EQ(platform.clock().now() - before, elapsed);
}

TEST(Platform, PowerTracksOperatingPoint)
{
    XGene2Platform platform;
    const double nominal = platform.currentPowerWatts();
    platform.applyOperatingPoint(volt::vminPoint());
    EXPECT_LT(platform.currentPowerWatts(), nominal);
    platform.applyOperatingPoint(volt::vmin900Point());
    EXPECT_LT(platform.currentPowerWatts(), 0.6 * nominal);
}

TEST(Platform, DistinctChipSeedsGiveDistinctVariation)
{
    PlatformConfig a;
    a.chipSeed = 1;
    PlatformConfig b;
    b.chipSeed = 2;
    XGene2Platform chip_a(a);
    XGene2Platform chip_b(b);
    bool different = false;
    for (unsigned core = 0; core < 8; ++core) {
        different |= chip_a.variation().coreOffsetVolts(core) !=
                     chip_b.variation().coreOffsetVolts(core);
    }
    EXPECT_TRUE(different);
}

TEST(Core, TouchesStayWithinFootprint)
{
    XGene2Platform platform;
    platform.setWorkloadFootprint(64, 32);
    // Drive a lot of front-end activity, then flip a bit far outside
    // the footprint: it must never be repaired by touches.
    auto &l1i = platform.memory().l1i(0);
    const size_t outside = l1i.words() - 1;
    l1i.array().flipBit(outside, 3);
    for (int quantum = 0; quantum < 200; ++quantum)
        platform.driveFrontEnd(512);
    EXPECT_TRUE(l1i.array().isCorrupted(outside));
}

TEST(Core, TouchRateProducesActivity)
{
    XGene2Platform platform;
    platform.setWorkloadFootprint(512, 256);
    // Flip bits inside every core's footprint; sustained touching must
    // eventually repair or replace them (either way: decorrupt).
    for (unsigned core = 0; core < 8; ++core)
        platform.memory().l1i(core).array().flipBit(17, 5);
    for (int quantum = 0; quantum < 400; ++quantum)
        platform.driveFrontEnd(512);
    unsigned still_corrupted = 0;
    for (unsigned core = 0; core < 8; ++core) {
        still_corrupted +=
            platform.memory().l1i(core).array().isCorrupted(17) ? 1 : 0;
    }
    EXPECT_LT(still_corrupted, 3u);  // ~51k touches over 512 words
}

TEST(Core, FootprintClampedToArraySize)
{
    XGene2Platform platform;
    // Requesting absurd footprints must not crash or touch out of
    // range (touch indices are clamped internally).
    platform.setWorkloadFootprint(1u << 30, 1u << 30);
    platform.driveFrontEnd(4096);
    SUCCEED();
}

TEST(Core, ReplacementsDestroyFlipsSilently)
{
    XGene2Platform platform;
    auto &edac = platform.edac();
    CoreConfig config;
    config.id = 0;
    config.ifetchTouchesPerAccess = 1.0;
    config.ifetchReplaceFraction = 1.0;  // replacements only
    config.tlbTouchesPerAccess = 0.0;
    Core core(config, &platform.memory(), Rng(5));
    core.setFootprint(64, 1);
    platform.memory().l1i(0).array().flipBit(7, 1);
    for (int quantum = 0; quantum < 100; ++quantum)
        core.driveQuantum(64);
    // The flip is gone (overwritten) but no corrected event was ever
    // reported -- the silent-destruction channel.
    EXPECT_FALSE(platform.memory().l1i(0).array().isCorrupted(7));
    EXPECT_EQ(edac.tally(mem::CacheLevel::L1).corrected, 0u);
}

/** A two-core hierarchy with Table 1's L1I and TLB sizes. */
mem::MemorySystemConfig
frontEndConfig()
{
    mem::MemorySystemConfig config;
    config.numCores = 2;
    config.l2Bytes = 16 * 1024;
    config.l3Bytes = 64 * 1024;
    return config;
}

/**
 * The front-end loop before its bounded draws were hoisted: one
 * nextBounded() per draw and a % words() wrap on every index.
 */
struct ReferenceFrontEnd {
    CoreConfig config;
    mem::MemorySystem *memory;
    Rng rng;
    size_t codeWords = 1;
    size_t tlbEntries = 1;
    double ifetchCarry = 0.0;
    double tlbCarry = 0.0;

    void
    setFootprint(size_t code_words, size_t tlb_entries)
    {
        codeWords = std::clamp<size_t>(
            code_words, 1, memory->l1i(config.id).words());
        tlbEntries = std::clamp<size_t>(
            tlb_entries, 1, memory->tlb(config.id).words());
    }

    void
    driveQuantum(uint64_t accesses)
    {
        ifetchCarry +=
            config.ifetchTouchesPerAccess * static_cast<double>(accesses);
        tlbCarry += config.tlbTouchesPerAccess * static_cast<double>(accesses);
        auto ifetch_due = static_cast<uint64_t>(ifetchCarry);
        auto tlb_due = static_cast<uint64_t>(tlbCarry);
        ifetchCarry -= static_cast<double>(ifetch_due);
        tlbCarry -= static_cast<double>(tlb_due);
        mem::RefetchableArray &l1i = memory->l1i(config.id);
        mem::RefetchableArray &tlb = memory->tlb(config.id);
        for (uint64_t i = 0; i < ifetch_due; ++i) {
            const size_t index = rng.nextBounded(codeWords);
            if (rng.nextBool(config.ifetchReplaceFraction))
                l1i.replace(index % l1i.words());
            else
                l1i.touch(index % l1i.words());
        }
        for (uint64_t i = 0; i < tlb_due; ++i) {
            const size_t index = rng.nextBounded(tlbEntries);
            if (rng.nextBool(config.tlbReplaceFraction))
                tlb.replace(index % tlb.words());
            else
                tlb.touch(index % tlb.words());
        }
    }

    /** The bytes Core::snapshot() writes for the same state. */
    std::vector<uint8_t>
    snapshotBytes() const
    {
        SnapshotWriter writer;
        for (const uint64_t word : rng.state())
            writer.u64(word);
        writer.f64(rng.cachedGaussian());
        writer.u8(rng.hasCachedGaussian() ? 1 : 0);
        writer.f64(ifetchCarry);
        writer.f64(tlbCarry);
        writer.u64(codeWords);
        writer.u64(tlbEntries);
        return writer.take();
    }
};

std::vector<uint8_t>
arrayBytes(const mem::RefetchableArray &array)
{
    SnapshotWriter writer;
    array.snapshot(writer);
    return writer.take();
}

TEST(Core, DriveQuantumMatchesNextBounded)
{
    mem::EdacReporter reporter_a;
    mem::EdacReporter reporter_b;
    mem::MemorySystem memory_a(frontEndConfig(), &reporter_a);
    mem::MemorySystem memory_b(frontEndConfig(), &reporter_b);
    CoreConfig config;
    config.id = 1;
    Core core(config, &memory_a, Rng(0xf00dULL));
    ReferenceFrontEnd reference{config, &memory_b, Rng(0xf00dULL)};
    reference.setFootprint(memory_b.l1i(1).words(),
                           memory_b.tlb(1).words());

    Rng ops(0xbeefULL);
    const size_t l1i_words = memory_a.l1i(1).words();
    const size_t tlb_words = memory_a.tlb(1).words();
    for (int quantum = 0; quantum < 600; ++quantum) {
        if (quantum % 10 == 0) {
            // Random footprints, mostly not powers of two, some past
            // the array (clamped) and some of one entry.
            size_t code = 1 + ops.nextBounded(l1i_words + 64);
            size_t tlb = 1 + ops.nextBounded(tlb_words + 64);
            if (ops.nextBool(0.1))
                code = 1;
            if (ops.nextBool(0.1))
                tlb = 1;
            core.setFootprint(code, tlb);
            reference.setFootprint(code, tlb);
        }
        // Latent upsets, so touches meet parity errors and repair them.
        const size_t word = ops.nextBounded(64);
        const auto bit = static_cast<unsigned>(ops.nextBounded(65));
        memory_a.l1i(1).array().flipBit(word, bit);
        memory_b.l1i(1).array().flipBit(word, bit);
        memory_a.tlb(1).array().flipBit(word, bit);
        memory_b.tlb(1).array().flipBit(word, bit);

        const uint64_t accesses = ops.nextBounded(3000);
        core.driveQuantum(accesses);
        reference.driveQuantum(accesses);

        SnapshotWriter writer;
        core.snapshot(writer);
        ASSERT_EQ(writer.take(), reference.snapshotBytes())
            << "quantum " << quantum;
        ASSERT_EQ(arrayBytes(memory_a.l1i(1)), arrayBytes(memory_b.l1i(1)))
            << "quantum " << quantum;
        ASSERT_EQ(arrayBytes(memory_a.tlb(1)), arrayBytes(memory_b.tlb(1)))
            << "quantum " << quantum;
    }
    EXPECT_GT(reporter_a.tally(mem::CacheLevel::L1).corrected, 0u);
    EXPECT_EQ(reporter_a.tally(mem::CacheLevel::L1).corrected,
              reporter_b.tally(mem::CacheLevel::L1).corrected);
    EXPECT_EQ(reporter_a.tally(mem::CacheLevel::Tlb).corrected,
              reporter_b.tally(mem::CacheLevel::Tlb).corrected);
}

TEST(CoreDeathTest, RestoreRejectsOutOfRangeFootprints)
{
    mem::EdacReporter reporter;
    mem::MemorySystem memory(frontEndConfig(), &reporter);
    Core core(CoreConfig{}, &memory, Rng(1));
    const uint64_t l1i_words = memory.l1i(0).words();
    const uint64_t tlb_words = memory.tlb(0).words();
    auto restore_with = [&core](uint64_t code_words, uint64_t tlb_entries) {
        SnapshotWriter writer;
        for (uint64_t word = 1; word <= 4; ++word)
            writer.u64(word);
        writer.f64(0.0);
        writer.u8(0);
        writer.f64(0.0);
        writer.f64(0.0);
        writer.u64(code_words);
        writer.u64(tlb_entries);
        const std::vector<uint8_t> bytes = writer.take();
        SnapshotReader reader(bytes);
        core.restore(reader);
    };
    restore_with(l1i_words, tlb_words);  // in range: accepted
    EXPECT_DEATH(restore_with(0, tlb_words), "code footprint");
    EXPECT_DEATH(restore_with(l1i_words + 1, tlb_words), "code footprint");
    EXPECT_DEATH(restore_with(l1i_words, 0), "TLB footprint");
    EXPECT_DEATH(restore_with(l1i_words, tlb_words + 1), "TLB footprint");
}

} // namespace
} // namespace xser::cpu
