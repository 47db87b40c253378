/**
 * @file
 * Tests for the memory hierarchy: SRAM arrays with fault overlays,
 * cache geometry/behavior, the recovery policies of the full
 * hierarchy, coherence, and the patrol scrubber.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/cache_geometry.hh"
#include "mem/memory_system.hh"
#include "mem/scrubber.hh"
#include "mem/sram_array.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "mem/tlb.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "telemetry/metrics.hh"

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

namespace xser::mem {
namespace {

/* ---------------------------- SramArray -------------------------- */

TEST(SramArray, WriteReadRoundTrip)
{
    SramArray array("test", 16, Protection::Secded);
    array.write(3, 0xdeadbeefULL);
    const ReadOutcome outcome = array.read(3);
    EXPECT_EQ(outcome.value, 0xdeadbeefULL);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::Clean);
    EXPECT_FALSE(outcome.silentCorruption);
}

TEST(SramArray, BitsPerWordPerScheme)
{
    EXPECT_EQ(SramArray("a", 4, Protection::None).bitsPerWord(), 64u);
    EXPECT_EQ(SramArray("b", 4, Protection::Parity).bitsPerWord(), 65u);
    EXPECT_EQ(SramArray("c", 4, Protection::Secded).bitsPerWord(), 72u);
    SramArray array("d", 100, Protection::Secded);
    EXPECT_EQ(array.totalBits(), 7200u);
}

TEST(SramArray, SecdedSingleFlipCorrectedOnRead)
{
    SramArray array("test", 8, Protection::Secded);
    array.write(0, 0x1234ULL);
    array.flipBit(0, 5);
    EXPECT_TRUE(array.isCorrupted(0));
    const ReadOutcome outcome = array.read(0);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::CorrectedSingle);
    EXPECT_EQ(outcome.value, 0x1234ULL);
    EXPECT_FALSE(outcome.silentCorruption);
    // Correction is scrubbed back into storage.
    EXPECT_FALSE(array.isCorrupted(0));
    EXPECT_EQ(array.counters().corrected, 1u);
}

TEST(SramArray, SecdedCheckBitFlipCorrected)
{
    SramArray array("test", 8, Protection::Secded);
    array.write(0, 0xabcdULL);
    array.flipBit(0, 64 + 3);  // a stored check bit
    const ReadOutcome outcome = array.read(0);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::CorrectedSingle);
    EXPECT_EQ(outcome.value, 0xabcdULL);
    EXPECT_FALSE(array.isCorrupted(0));
}

TEST(SramArray, SecdedDoubleFlipUncorrectable)
{
    SramArray array("test", 8, Protection::Secded);
    array.write(0, 0x5555ULL);
    array.flipBit(0, 1);
    array.flipBit(0, 2);
    const ReadOutcome outcome = array.read(0);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::DetectedDouble);
    EXPECT_EQ(array.counters().uncorrected, 1u);
}

TEST(SramArray, SecdedTripleFlipMiscorrectionGroundTruthed)
{
    // Sweep triples until one miscorrects; the array must ground-truth
    // it (hardware would report a plain CE).
    SramArray array("test", 8, Protection::Secded);
    bool found = false;
    Rng rng(3);
    for (int trial = 0; trial < 500 && !found; ++trial) {
        array.write(0, 0x1111111111111111ULL);
        array.flipBit(0, static_cast<unsigned>(rng.nextBounded(64)));
        array.flipBit(0, static_cast<unsigned>(rng.nextBounded(64)));
        array.flipBit(0, static_cast<unsigned>(rng.nextBounded(64)));
        const ReadOutcome outcome = array.read(0);
        if (outcome.status == ecc::CheckStatus::Miscorrected) {
            EXPECT_TRUE(outcome.silentCorruption);
            EXPECT_NE(outcome.value, 0x1111111111111111ULL);
            found = true;
        }
    }
    EXPECT_TRUE(found);
    EXPECT_GT(array.counters().miscorrections, 0u);
}

TEST(SramArray, ParityEscapeIsSilentCorruption)
{
    SramArray array("test", 8, Protection::Parity);
    array.write(2, 0xf0f0ULL);
    array.flipBit(2, 0);
    array.flipBit(2, 1);  // even flip count escapes parity
    const ReadOutcome outcome = array.read(2);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::Clean);
    EXPECT_TRUE(outcome.silentCorruption);
    EXPECT_EQ(array.counters().silentEscapes, 1u);
}

TEST(SramArray, OverwriteClearsFlipAndCounts)
{
    SramArray array("test", 8, Protection::Parity);
    array.write(1, 7);
    array.flipBit(1, 9);
    array.write(1, 9);  // overwrite destroys the latent flip
    EXPECT_EQ(array.counters().overwrittenFlips, 1u);
    const ReadOutcome outcome = array.read(1);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::Clean);
    EXPECT_EQ(outcome.value, 9u);
}

TEST(SramArray, ResetClearsState)
{
    SramArray array("test", 8, Protection::Secded);
    array.write(0, 42);
    array.flipBit(0, 3);
    array.reset();
    EXPECT_EQ(array.read(0).value, 0u);
    EXPECT_EQ(array.counters().bitFlipsInjected, 0u);
}

/**
 * Reference model of SramArray with one dense array per concept --
 * stored data, truth, stored check bits, truth check bits, corruption
 * flags, and stale-check flags -- and the same snapshot stream. The
 * randomized test below drives it in lockstep with SramArray, so the
 * array's compact layout is checked against a model that keeps every
 * word's state explicitly.
 */
class DenseSramModel
{
  public:
    DenseSramModel(size_t words, Protection protection)
        : protection_(protection), data_(words, 0), shadow_(words, 0),
          check_(words, zeroCheck()), shadowCheck_(words, zeroCheck()),
          corrupt_(words, 0), stale_(words, 0)
    {
    }

    void setFastPath(bool enabled) { fastPath_ = enabled; }
    const SramCounters &counters() const { return counters_; }

    size_t
    corruptWords() const
    {
        size_t count = 0;
        for (const uint8_t flag : corrupt_)
            count += flag;
        return count;
    }

    bool isCorrupted(size_t index) const { return corrupt_[index] != 0; }
    uint64_t peek(size_t index) const { return data_[index]; }
    uint64_t truth(size_t index) const { return shadow_[index]; }

    void
    write(size_t index, uint64_t value)
    {
        if (corrupt_[index]) {
            ++counters_.overwrittenFlips;
            corrupt_[index] = 0;
        }
        data_[index] = value;
        shadow_[index] = value;
        stale_[index] = 1;
    }

    void
    flipBit(size_t index, unsigned stored_bit)
    {
        materialize(index);
        if (stored_bit < 64)
            data_[index] ^= 1ULL << stored_bit;
        else
            check_[index] ^= static_cast<uint8_t>(1u << (stored_bit - 64));
        refresh(index);
        ++counters_.bitFlipsInjected;
    }

    void noteUpsetEvent() { ++counters_.upsetEventsInjected; }

    ReadOutcome
    read(size_t index)
    {
        if (fastPath_ && !corrupt_[index])
            return {data_[index], ecc::CheckStatus::Clean, false};
        ReadOutcome outcome{data_[index], ecc::CheckStatus::Clean, false};
        if (protection_ == Protection::None) {
            outcome.silentCorruption = data_[index] != shadow_[index];
        } else if (protection_ == Protection::Parity) {
            materialize(index);
            outcome.status =
                ecc::ParityCodec::check(data_[index], check_[index]);
            if (outcome.status == ecc::CheckStatus::ParityError) {
                ++counters_.parityErrors;
                return outcome;
            }
            outcome.silentCorruption = data_[index] != shadow_[index];
        } else {
            materialize(index);
            const auto result =
                ecc::SecdedCodec::decode(data_[index], check_[index]);
            outcome.value = result.data;
            outcome.status = result.status;
            if (result.status == ecc::CheckStatus::CorrectedSingle) {
                data_[index] = result.data;
                check_[index] = result.check;
                refresh(index);
                ++counters_.corrected;
                if (result.data != shadow_[index]) {
                    outcome.status = ecc::CheckStatus::Miscorrected;
                    outcome.silentCorruption = true;
                    ++counters_.miscorrections;
                }
                return outcome;
            }
            if (result.status == ecc::CheckStatus::DetectedDouble) {
                ++counters_.uncorrected;
                return outcome;
            }
            outcome.silentCorruption = result.data != shadow_[index];
        }
        if (outcome.silentCorruption)
            ++counters_.silentEscapes;
        return outcome;
    }

    /** The snapshot stream, field for field. */
    std::vector<uint8_t>
    snapshot() const
    {
        SnapshotWriter writer;
        writer.u64(data_.size());
        writer.u8(static_cast<uint8_t>(protection_));
        writer.u64(corruptWords());
        writer.u64Vector(data_);
        writer.byteVector(check_);
        writer.byteVector(stale_);
        for (const uint64_t counter :
             {counters_.bitFlipsInjected, counters_.upsetEventsInjected,
              counters_.corrected, counters_.uncorrected,
              counters_.parityErrors, counters_.miscorrections,
              counters_.silentEscapes, counters_.overwrittenFlips})
            writer.u64(counter);
        if (corruptWords() > 0) {
            writer.u64Vector(shadow_);
            writer.byteVector(shadowCheck_);
            writer.byteVector(corrupt_);
        }
        return writer.take();
    }

    /** Restore a stream written by snapshot(). */
    void
    restore(const std::vector<uint8_t> &bytes)
    {
        SnapshotReader reader(bytes);
        reader.u64();
        reader.u8();
        const uint64_t corrupt_words = reader.u64();
        reader.u64Vector(data_);
        reader.byteVector(check_);
        reader.byteVector(stale_);
        for (uint64_t *counter :
             {&counters_.bitFlipsInjected, &counters_.upsetEventsInjected,
              &counters_.corrected, &counters_.uncorrected,
              &counters_.parityErrors, &counters_.miscorrections,
              &counters_.silentEscapes, &counters_.overwrittenFlips})
            *counter = reader.u64();
        if (corrupt_words > 0) {
            reader.u64Vector(shadow_);
            reader.byteVector(shadowCheck_);
            reader.byteVector(corrupt_);
        } else {
            shadow_ = data_;
            shadowCheck_ = check_;
            std::fill(corrupt_.begin(), corrupt_.end(), 0);
        }
    }

  private:
    uint8_t
    zeroCheck() const
    {
        return protection_ == Protection::Secded
                   ? ecc::SecdedCodec::encode(0)
                   : 0;
    }

    void
    materialize(size_t index)
    {
        if (!stale_[index])
            return;
        stale_[index] = 0;
        uint8_t bits = 0;
        if (protection_ == Protection::Parity)
            bits = ecc::ParityCodec::encode(shadow_[index]);
        else if (protection_ == Protection::Secded)
            bits = ecc::SecdedCodec::encode(shadow_[index]);
        check_[index] = bits;
        shadowCheck_[index] = bits;
    }

    void
    refresh(size_t index)
    {
        corrupt_[index] = data_[index] != shadow_[index] ||
                                  check_[index] != shadowCheck_[index]
                              ? 1
                              : 0;
    }

    Protection protection_;
    bool fastPath_ = true;
    std::vector<uint64_t> data_;
    std::vector<uint64_t> shadow_;
    std::vector<uint8_t> check_;
    std::vector<uint8_t> shadowCheck_;
    std::vector<uint8_t> corrupt_;
    std::vector<uint8_t> stale_;
    SramCounters counters_;
};

void
expectCountersEqual(const SramCounters &a, const SramCounters &b)
{
    EXPECT_EQ(a.bitFlipsInjected, b.bitFlipsInjected);
    EXPECT_EQ(a.upsetEventsInjected, b.upsetEventsInjected);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.uncorrected, b.uncorrected);
    EXPECT_EQ(a.parityErrors, b.parityErrors);
    EXPECT_EQ(a.miscorrections, b.miscorrections);
    EXPECT_EQ(a.silentEscapes, b.silentEscapes);
    EXPECT_EQ(a.overwrittenFlips, b.overwrittenFlips);
}

void
expectOutcomesEqual(const ReadOutcome &a, const ReadOutcome &b,
                    int step)
{
    EXPECT_EQ(a.value, b.value) << "step " << step;
    EXPECT_EQ(a.status, b.status) << "step " << step;
    EXPECT_EQ(a.silentCorruption, b.silentCorruption) << "step " << step;
}

/** Offset of the first byte where two streams differ, or -1. */
long
firstDifference(const std::vector<uint8_t> &a, const std::vector<uint8_t> &b)
{
    const size_t common = std::min(a.size(), b.size());
    for (size_t i = 0; i < common; ++i) {
        if (a[i] != b[i])
            return static_cast<long>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<long>(common);
}

class SramArrayVsDenseModel
    : public ::testing::TestWithParam<std::tuple<Protection, bool>>
{
};

TEST_P(SramArrayVsDenseModel, RandomOpsMatchOutcomesCountersAndBytes)
{
    const auto [protection, fast_path] = GetParam();
    constexpr size_t words = 64;  // eight 8-word lines
    SramArray array("model", words, protection);
    array.setFastPath(fast_path);
    DenseSramModel model(words, protection);
    model.setFastPath(fast_path);
    Rng rng(0x5a3d + static_cast<uint64_t>(protection) * 2 +
            (fast_path ? 1 : 0));

    // Flips concentrate on a few hot words so multi-bit patterns
    // (cancelling pairs, double errors, miscorrections) all occur.
    auto pick_word = [&rng]() {
        return rng.nextBool(0.5) ? static_cast<size_t>(rng.nextBounded(4))
                                 : static_cast<size_t>(
                                       rng.nextBounded(words));
    };
    for (int step = 0; step < 6000; ++step) {
        const uint64_t op = rng.nextBounded(100);
        if (op < 20) {
            const size_t index = pick_word();
            const uint64_t value = rng.nextU64();
            array.write(index, value);
            model.write(index, value);
        } else if (op < 30) {
            const size_t base = 8 * static_cast<size_t>(rng.nextBounded(8));
            std::array<uint64_t, 8> values;
            for (uint64_t &value : values)
                value = rng.nextU64();
            array.writeRange(base, values.data(), values.size());
            for (size_t i = 0; i < values.size(); ++i)
                model.write(base + i, values[i]);
        } else if (op < 55) {
            const size_t index = pick_word();
            expectOutcomesEqual(array.read(index), model.read(index), step);
        } else if (op < 70) {
            // Line read: the clean bulk path when it applies, else word
            // by word, exactly as Cache reads lines out.
            const size_t base = 8 * static_cast<size_t>(rng.nextBounded(8));
            std::array<uint64_t, 8> out{};
            if (array.readRange(base, out.size(), out.data())) {
                for (size_t i = 0; i < out.size(); ++i) {
                    const ReadOutcome expected = model.read(base + i);
                    EXPECT_EQ(expected.status, ecc::CheckStatus::Clean);
                    EXPECT_FALSE(expected.silentCorruption);
                    EXPECT_EQ(out[i], expected.value) << "step " << step;
                }
            } else {
                for (size_t i = 0; i < out.size(); ++i) {
                    expectOutcomesEqual(array.read(base + i),
                                        model.read(base + i), step);
                }
            }
        } else if (op < 92) {
            const size_t index = pick_word();
            const auto bit = static_cast<unsigned>(
                rng.nextBounded(array.bitsPerWord()));
            array.flipBit(index, bit);
            model.flipBit(index, bit);
            if (rng.nextBool(0.3)) {
                array.noteUpsetEvent();
                model.noteUpsetEvent();
            }
        } else {
            // Snapshot both, compare bytes, and continue from a fresh
            // array restored from the stream.
            SnapshotWriter writer;
            array.snapshot(writer);
            const std::vector<uint8_t> bytes = writer.take();
            ASSERT_EQ(firstDifference(bytes, model.snapshot()), -1)
                << "step " << step;
            SramArray restored("model", words, protection);
            restored.setFastPath(fast_path);
            SnapshotReader reader(bytes);
            restored.restore(reader);
            EXPECT_TRUE(reader.atEnd());
            array = std::move(restored);
            model.restore(bytes);
        }
        expectCountersEqual(array.counters(), model.counters());
        ASSERT_EQ(array.corruptWords(), model.corruptWords())
            << "step " << step;
        const size_t probe = static_cast<size_t>(rng.nextBounded(words));
        EXPECT_EQ(array.isCorrupted(probe), model.isCorrupted(probe));
        EXPECT_EQ(array.peek(probe), model.peek(probe));
        EXPECT_EQ(array.truth(probe), model.truth(probe));
        EXPECT_EQ(array.anyCorruptInRange(0, words),
                  model.corruptWords() > 0);
        if (HasFailure())
            return;
    }
    SnapshotWriter writer;
    array.snapshot(writer);
    EXPECT_EQ(firstDifference(writer.take(), model.snapshot()), -1);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndPaths, SramArrayVsDenseModel,
    ::testing::Combine(::testing::Values(Protection::None,
                                         Protection::Parity,
                                         Protection::Secded),
                       ::testing::Bool()));

/* -------------------------- CacheGeometry ------------------------ */

TEST(CacheGeometry, Derivations)
{
    CacheGeometry geometry(256 * 1024, 64, 8);
    EXPECT_EQ(geometry.numSets(), 512u);
    EXPECT_EQ(geometry.numLines(), 4096u);
    EXPECT_EQ(geometry.wordsPerLine(), 8u);
}

TEST(CacheGeometry, AddressSlicing)
{
    CacheGeometry geometry(32 * 1024, 64, 4);  // 128 sets
    const Addr addr = 0x12345678;
    EXPECT_EQ(geometry.lineBase(addr), addr & ~0x3fULL);
    EXPECT_EQ(geometry.setIndex(addr), (addr >> 6) & 127);
    EXPECT_EQ(geometry.tag(addr), addr >> 13);
    EXPECT_EQ(geometry.wordOffset(addr), (addr & 63) >> 3);
    // Reconstruction inverts slicing.
    EXPECT_EQ(geometry.lineAddress(geometry.tag(addr),
                                   geometry.setIndex(addr)),
              geometry.lineBase(addr));
}

/* ------------------------------ Cache ---------------------------- */

/** A line with every word set to `value`. */
LineData
filledLine(uint64_t value)
{
    LineData line;
    line.fill(value);
    return line;
}

CacheConfig
smallCacheConfig()
{
    CacheConfig config;
    config.name = "test.l2";
    config.sizeBytes = 8 * 1024;
    config.lineBytes = 64;
    config.associativity = 2;
    config.protection = Protection::Secded;
    config.writePolicy = WritePolicy::WriteBack;
    config.level = CacheLevel::L2;
    return config;
}

TEST(Cache, AllocateAndReadWord)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    LineData line;
    for (size_t i = 0; i < 8; ++i)
        line[i] = 100 + i;
    cache.allocate(0x1000, line, false);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.readWord(0x1000 + 24).value, 103u);
}

TEST(Cache, WriteMarksDirty)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    cache.allocate(0x1000, filledLine(0), false);
    EXPECT_FALSE(cache.isDirty(0x1000));
    cache.writeWord(0x1008, 77);
    EXPECT_TRUE(cache.isDirty(0x1000));
    EXPECT_EQ(cache.readWord(0x1008).value, 77u);
}

TEST(Cache, LruEvictionPrefersOldest)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    // 64 sets; same set addresses differ by 64*64 = 0x1000.
    const Addr a = 0x0000;
    const Addr b = 0x1000;
    const Addr c = 0x2000;
    cache.allocate(a, filledLine(1), false);
    cache.allocate(b, filledLine(2), false);
    cache.readWord(a);  // touch a so b is LRU
    EvictedLine evicted = cache.allocate(c, filledLine(3),
                                         false);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.address, b);
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
}

TEST(Cache, DirtyEvictionReturnsData)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    cache.allocate(0x0000, filledLine(5), true);
    cache.allocate(0x1000, filledLine(6), false);
    EvictedLine evicted =
        cache.allocate(0x2000, filledLine(7), false);
    EXPECT_TRUE(evicted.valid);
    EXPECT_TRUE(evicted.dirty);
    ASSERT_EQ(evicted.data.size(), 8u);
    EXPECT_EQ(evicted.data[0], 5u);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, InvalidateDropsLine)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    cache.allocate(0x1000, filledLine(1), true);
    cache.invalidate(0x1000);
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(Cache, FlipInLineCorrectedOnReadAndReported)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    LineData line;
    for (size_t i = 0; i < line.size(); ++i)
        line[i] = 0xaa00 + i;
    cache.allocate(0x1000, line, false);
    // Find where word 3 of the line landed through its truth, and flip
    // one of its stored bits.
    size_t flipped = cache.dataArray().words();
    for (size_t word = 0; word < cache.dataArray().words(); ++word) {
        if (cache.dataArray().truth(word) == 0xaa03) {
            flipped = word;
            break;
        }
    }
    ASSERT_LT(flipped, cache.dataArray().words());
    cache.dataArray().flipBit(flipped, 3);
    ASSERT_TRUE(cache.dataArray().isCorrupted(flipped));

    const ReadOutcome outcome = cache.readWord(0x1000 + 3 * 8);
    EXPECT_EQ(outcome.status, ecc::CheckStatus::CorrectedSingle);
    EXPECT_EQ(outcome.value, 0xaa03u);
    EXPECT_EQ(reporter.tally(CacheLevel::L2).corrected, 1u);
    EXPECT_EQ(reporter.tally(CacheLevel::L2).uncorrected, 0u);
    // Repaired in place: stored bits match the truth again, and a
    // later read is clean and reports nothing.
    EXPECT_FALSE(cache.dataArray().isCorrupted(flipped));
    EXPECT_EQ(cache.dataArray().peek(flipped), 0xaa03u);
    EXPECT_EQ(cache.readWord(0x1000 + 3 * 8).status,
              ecc::CheckStatus::Clean);
    EXPECT_EQ(reporter.tally(CacheLevel::L2).corrected, 1u);
}

TEST(Cache, DrainAllWritesBackDirtyLines)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    cache.allocate(0x1000, filledLine(1), true);
    cache.allocate(0x2000, filledLine(2), false);
    auto dirty = cache.drainAll();
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].first, 0x1000u);
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(Cache, OccupancyTracksValidLines)
{
    EdacReporter reporter;
    Cache cache(smallCacheConfig(), &reporter);
    EXPECT_DOUBLE_EQ(cache.occupancy(), 0.0);
    cache.allocate(0x1000, filledLine(1), false);
    EXPECT_GT(cache.occupancy(), 0.0);
}

/* -------------------------- MemorySystem ------------------------- */

MemorySystemConfig
tinyConfig()
{
    MemorySystemConfig config;
    config.numCores = 2;
    config.l1iBytes = 4 * 1024;
    config.l1dBytes = 4 * 1024;
    config.l1dAssociativity = 2;
    config.l2Bytes = 16 * 1024;
    config.l2Associativity = 4;
    config.l3Bytes = 64 * 1024;
    config.l3Associativity = 8;
    config.tlbWordsPerCore = 64;
    return config;
}

TEST(MemorySystem, ReadAfterWriteSameCore)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0xfeedULL);
    EXPECT_EQ(memory.readWord(0, addr), 0xfeedULL);
}

TEST(MemorySystem, ReadAfterWriteCrossCoreAndPair)
{
    MemorySystemConfig config = tinyConfig();
    config.numCores = 4;  // two pairs
    EdacReporter reporter;
    MemorySystem memory(config, &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 1);
    EXPECT_EQ(memory.readWord(3, addr), 1u);  // cross-pair read
    memory.writeWord(3, addr, 2);             // cross-pair write
    EXPECT_EQ(memory.readWord(0, addr), 2u);
    memory.writeWord(1, addr, 3);             // same-pair write
    EXPECT_EQ(memory.readWord(2, addr), 3u);
    EXPECT_EQ(memory.readWord(3, addr), 3u);
}

TEST(MemorySystem, RandomizedCoherenceAgainstReferenceModel)
{
    MemorySystemConfig config = tinyConfig();
    config.numCores = 4;
    EdacReporter reporter;
    MemorySystem memory(config, &reporter);
    const size_t words = 512;
    const Addr base = memory.allocate(words * 8, "ref");
    std::vector<uint64_t> reference(words, 0);
    for (size_t i = 0; i < words; ++i)
        memory.writeWord(0, base + 8 * i, 0);

    Rng rng(0xc0ffeeULL);
    for (int op = 0; op < 20000; ++op) {
        const auto core = static_cast<unsigned>(rng.nextBounded(4));
        const size_t index = rng.nextBounded(words);
        if (rng.nextBool(0.5)) {
            const uint64_t value = rng.nextU64();
            memory.writeWord(core, base + 8 * index, value);
            reference[index] = value;
        } else {
            ASSERT_EQ(memory.readWord(core, base + 8 * index),
                      reference[index])
                << "op " << op << " core " << core << " idx " << index;
        }
    }
}

TEST(MemorySystem, L1ParityFlipIsRefetchedTransparently)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0x1234ULL);
    memory.readWord(0, addr);  // ensure L1 resident

    // Flip one data bit in core 0's L1D and re-read every word of the
    // array's footprint via the owning address. Simpler: flip in the
    // exact word by scanning for the corrupted word.
    Cache &l1 = memory.l1d(0);
    bool flipped = false;
    for (size_t word = 0; word < l1.dataArray().words() && !flipped;
         ++word) {
        if (l1.dataArray().truth(word) == 0x1234ULL) {
            l1.dataArray().flipBit(word, 7);
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    // The read must deliver correct data (invalidate + refetch) and
    // log a corrected L1 event.
    EXPECT_EQ(memory.readWord(0, addr), 0x1234ULL);
    EXPECT_EQ(reporter.tally(CacheLevel::L1).corrected, 1u);
    EXPECT_EQ(memory.deliveryCounters().parityRefetches, 1u);
}

TEST(MemorySystem, L2SecdedFlipCorrectedInPlace)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0x77ULL);  // resident dirty in L2

    Cache &l2 = memory.l2(0);
    bool flipped = false;
    for (size_t word = 0; word < l2.dataArray().words() && !flipped;
         ++word) {
        if (l2.dataArray().truth(word) == 0x77ULL) {
            l2.dataArray().flipBit(word, 11);
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    // Force an L1 miss so the read goes to L2: invalidate L1 copy.
    memory.l1d(0).invalidate(addr);
    EXPECT_EQ(memory.readWord(0, addr), 0x77ULL);
    EXPECT_EQ(reporter.tally(CacheLevel::L2).corrected, 1u);
}

TEST(MemorySystem, CleanL3UncorrectableReloadsFromDram)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0x99ULL);
    memory.flushAll();  // truth now in DRAM; caches empty
    memory.readWord(0, addr);  // L3 (and L2/L1) now hold a clean copy

    Cache &l3 = memory.l3();
    bool flipped = false;
    for (size_t word = 0; word < l3.dataArray().words() && !flipped;
         ++word) {
        if (l3.dataArray().truth(word) == 0x99ULL) {
            l3.dataArray().flipBit(word, 1);
            l3.dataArray().flipBit(word, 2);  // double: uncorrectable
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    memory.l1d(0).invalidate(addr);
    memory.l2(0).invalidate(addr);
    EXPECT_EQ(memory.readWord(0, addr), 0x99ULL);  // reloaded from DRAM
    EXPECT_GE(reporter.tally(CacheLevel::L3).uncorrected, 1u);
}

TEST(MemorySystem, TouchRepairsFlippedIFetchWord)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    RefetchableArray &l1i = memory.l1i(0);
    l1i.array().flipBit(5, 3);
    l1i.touch(5);
    EXPECT_EQ(reporter.tally(CacheLevel::L1).corrected, 1u);
    EXPECT_EQ(l1i.repairs(), 1u);
    // Word is repaired: touching again reports nothing new.
    l1i.touch(5);
    EXPECT_EQ(reporter.tally(CacheLevel::L1).corrected, 1u);
}

TEST(MemorySystem, TlbTouchAttributesToTlbLevel)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    memory.tlb(1).array().flipBit(7, 0);
    memory.tlb(1).touch(7);
    EXPECT_EQ(reporter.tally(CacheLevel::Tlb).corrected, 1u);
}

TEST(MemorySystem, BeamTargetsCoverAllArrays)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const auto targets = memory.beamTargets();
    // 2 cores: 2 L1I + 2 L1D + 2 TLB + 1 L2 + 1 L3 = 8 arrays.
    EXPECT_EQ(targets.size(), 8u);
    uint64_t bits = 0;
    for (const auto &target : targets)
        bits += target.array->totalBits();
    EXPECT_EQ(bits, memory.totalSramBits());
    // L3 is the only SoC-domain array.
    int soc = 0;
    for (const auto &target : targets)
        soc += target.pmdDomain ? 0 : 1;
    EXPECT_EQ(soc, 1);
}

TEST(MemorySystem, CycleAccountingGrows)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.clearCycles();
    memory.readWord(0, addr);  // cold miss: L1+L2+L3+DRAM costs
    const uint64_t cold = memory.cyclesAccumulated();
    memory.clearCycles();
    memory.readWord(0, addr);  // warm hit
    const uint64_t warm = memory.cyclesAccumulated();
    EXPECT_GT(cold, warm);
    EXPECT_GE(warm, 1u);
}

TEST(MemorySystem, XGeneFootprintIsTenMegabytes)
{
    // Table 1 / Section 3.3: ~10 MB of on-chip SRAM (data arrays).
    EdacReporter reporter;
    MemorySystem memory(MemorySystemConfig{}, &reporter);
    const double mbytes = static_cast<double>(memory.totalSramBits()) /
                          8.0 / 1024.0 / 1024.0;
    EXPECT_GT(mbytes, 9.5);
    EXPECT_LT(mbytes, 11.5);
}

/* ---------------------------- Scrubber --------------------------- */

TEST(Scrubber, PacingCoversArrays)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    ScrubberConfig config;
    config.enabled = true;
    config.l2PassPeriod = ticks::fromSeconds(0.001);
    config.l3PassPeriod = ticks::fromSeconds(0.001);
    Scrubber scrubber(config, &memory);
    scrubber.advance(ticks::fromSeconds(0.001));
    // One full pass over both arrays: L2 has 64 lines... (16KB/64/4=64
    // sets * 4 ways = 256 lines); L3 64KB -> 1024 lines.
    EXPECT_GE(scrubber.linesScrubbed(),
              memory.l2(0).geometry().numLines() +
                  memory.l3().geometry().numLines() - 2);
}

TEST(Scrubber, DisabledDoesNothing)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    ScrubberConfig config;
    config.enabled = false;
    Scrubber scrubber(config, &memory);
    scrubber.advance(ticks::fromSeconds(1.0));
    EXPECT_EQ(scrubber.linesScrubbed(), 0u);
}

TEST(Scrubber, ScrubCorrectsLatentFlip)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0xabcULL);  // dirty line in L2

    Cache &l2 = memory.l2(0);
    for (size_t word = 0; word < l2.dataArray().words(); ++word) {
        if (l2.dataArray().truth(word) == 0xabcULL) {
            l2.dataArray().flipBit(word, 0);
            break;
        }
    }
    ScrubberConfig config;
    config.enabled = true;
    config.l2PassPeriod = ticks::fromSeconds(0.001);
    config.l3PassPeriod = ticks::fromSeconds(0.001);
    Scrubber scrubber(config, &memory);
    scrubber.advance(ticks::fromSeconds(0.002));
    EXPECT_GE(reporter.tally(CacheLevel::L2).corrected, 1u);
}

/* ------------------------ more MemorySystem ---------------------- */

TEST(MemorySystem, AllocationsAreLineAlignedAndDisjoint)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr a = memory.allocate(10, "a");    // odd size
    const Addr b = memory.allocate(100, "b");
    const Addr c = memory.allocate(64, "c");
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GE(c, b + 100);
}

TEST(MemorySystem, ResetHeapClearsDramAndCaches)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 77);
    memory.resetHeap();
    const Addr again = memory.allocate(64, "t2");
    EXPECT_EQ(again, addr);  // bump pointer rewound
    EXPECT_EQ(memory.readWord(0, again), 0u);  // DRAM cleared
}

TEST(MemorySystem, FlushAllPersistsDirtyDataToDram)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 0x123ULL);
    memory.flushAll();
    EXPECT_FALSE(memory.l1d(0).contains(addr));
    EXPECT_FALSE(memory.l2(0).contains(addr));
    EXPECT_FALSE(memory.l3().contains(addr));
    // Value survives the flush (it reached DRAM).
    EXPECT_EQ(memory.readWord(0, addr), 0x123ULL);
}

TEST(MemorySystem, WriteThroughL1NeverHoldsDirtyLines)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.readWord(0, addr);   // fill L1
    memory.writeWord(0, addr, 5);
    EXPECT_FALSE(memory.l1d(0).isDirty(addr));
    EXPECT_TRUE(memory.l2(0).isDirty(addr));
}

TEST(MemorySystem, CrossPairSnoopFlushesDirtyCopy)
{
    MemorySystemConfig config = tinyConfig();
    config.numCores = 4;
    EdacReporter reporter;
    MemorySystem memory(config, &reporter);
    const Addr addr = memory.allocate(64, "t");
    memory.writeWord(0, addr, 11);        // pair 0 dirty
    EXPECT_TRUE(memory.l2(0).isDirty(addr));
    memory.writeWord(2, addr, 12);        // pair 1 takes ownership
    EXPECT_FALSE(memory.l2(0).contains(addr));
    EXPECT_TRUE(memory.l2(1).isDirty(addr));
    EXPECT_EQ(memory.readWord(0, addr), 12u);
}

TEST(MemorySystem, UninitializedMemoryReadsZero)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(4096, "t");
    EXPECT_EQ(memory.readWord(1, addr + 2048), 0u);
}

/** Protection-scheme sweep over SramArray write/read round trips. */
class ProtectionSweep : public ::testing::TestWithParam<Protection>
{
};

TEST_P(ProtectionSweep, RoundTripAndFlipAccounting)
{
    SramArray array("sweep", 32, GetParam());
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const size_t index = rng.nextBounded(32);
        const uint64_t value = rng.nextU64();
        array.write(index, value);
        EXPECT_EQ(array.read(index).value, value);
    }
    // A flip is visible to isCorrupted regardless of scheme.
    array.write(0, 42);
    array.flipBit(0, 13);
    EXPECT_TRUE(array.isCorrupted(0));
    EXPECT_EQ(array.counters().bitFlipsInjected, 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ProtectionSweep,
                         ::testing::Values(Protection::None,
                                           Protection::Parity,
                                           Protection::Secded));

TEST(Cache, ParityOnWriteBackReportsUncorrected)
{
    // Ablation configuration: parity on a write-back cache means a
    // detected error has no second copy -> logged as UE.
    EdacReporter reporter;
    CacheConfig config = smallCacheConfig();
    config.protection = Protection::Parity;
    Cache cache(config, &reporter);
    cache.allocate(0x1000, filledLine(3), true);
    bool flipped = false;
    for (size_t word = 0; word < cache.dataArray().words() && !flipped;
         ++word) {
        if (cache.dataArray().truth(word) == 3) {
            cache.dataArray().flipBit(word, 0);
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    LineData line;
    EXPECT_TRUE(cache.readLine(0x1000, line));
    EXPECT_EQ(reporter.tally(CacheLevel::L2).uncorrected, 1u);
}

TEST(Scrubber, ClockScaleSpeedsPassRate)
{
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    ScrubberConfig config;
    config.enabled = true;
    config.l2PassPeriod = ticks::fromSeconds(0.010);
    config.l3PassPeriod = ticks::fromSeconds(0.010);

    Scrubber full(config, &memory);
    full.advance(ticks::fromSeconds(0.010));
    const uint64_t at_full = full.linesScrubbed();

    ScrubberConfig slow = config;
    slow.clockScale = 0.375;  // 900 MHz / 2.4 GHz
    EdacReporter reporter2;
    MemorySystem memory2(tinyConfig(), &reporter2);
    Scrubber scaled(slow, &memory2);
    scaled.advance(ticks::fromSeconds(0.010));
    EXPECT_NEAR(static_cast<double>(scaled.linesScrubbed()),
                0.375 * static_cast<double>(at_full),
                0.05 * static_cast<double>(at_full));
}

/** FNV-1a over a byte stream, for pinning snapshot bytes. */
uint64_t
streamHash(const std::vector<uint8_t> &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(MemorySystem, SnapshotStreamWithCorruptionIsPinned)
{
    // The snapshot stream is the checkpoint payload format: its bytes
    // must not depend on how the hierarchy stores its state. This pins
    // a tiny hierarchy's stream with dirty lines, DRAM pages, lazily
    // encoded check bits and corrupt words present, so any layout
    // change that alters a byte fails here.
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr base = memory.allocate(32 * 1024, "pin");
    for (size_t i = 0; i < 4096; i += 3)
        memory.writeWord(static_cast<unsigned>(i % 2), base + 8 * i,
                         i * 0x9e3779b97f4a7c15ULL);
    for (size_t i = 0; i < 4096; i += 5)
        memory.readWord(static_cast<unsigned>((i / 5) % 2), base + 8 * i);

    // Upsets that reads and a patrol pass then consume...
    memory.l1d(0).dataArray().flipBit(3, 7);
    memory.l2(0).dataArray().flipBit(10, 1);
    memory.l2(0).dataArray().flipBit(800, 1);
    memory.l2(0).dataArray().flipBit(800, 2);
    memory.l3().dataArray().flipBit(100, 5);
    for (size_t i = 0; i < 4096; i += 7)
        memory.readWord(1, base + 8 * i);
    memory.scrub(8, 8);
    // ...and upsets still latent at the snapshot, in every kind of
    // array: single, double and check-bit flips, plus a write over a
    // check-bit flip (a stale word whose stored and true check bits
    // differ).
    memory.l1d(1).dataArray().flipBit(5, 9);
    memory.l2(0).dataArray().flipBit(900, 1);
    memory.l2(0).dataArray().flipBit(900, 2);
    memory.l2(0).dataArray().flipBit(901, 64 + 2);
    memory.l2(0).dataArray().flipBit(902, 64 + 1);
    memory.l2(0).dataArray().write(902, 0x1234);
    memory.l3().dataArray().flipBit(4000, 5);
    memory.l3().dataArray().flipBit(4001, 64 + 3);
    memory.l1i(1).array().flipBit(4, 0);
    memory.tlb(0).array().flipBit(7, 64);
    ASSERT_GT(memory.l2(0).dataArray().corruptWords(), 0u);
    ASSERT_GT(memory.l3().dataArray().corruptWords(), 0u);

    SnapshotWriter writer;
    memory.snapshot(writer);
    const std::vector<uint8_t> bytes = writer.take();
    EXPECT_EQ(bytes.size(), 300704u);
    EXPECT_EQ(streamHash(bytes), 0xbd2fa0f784ba8687ULL);

    // And the stream is a fixed point of restore + snapshot.
    EdacReporter reporter2;
    MemorySystem copy(tinyConfig(), &reporter2);
    SnapshotReader reader(bytes);
    copy.restore(reader);
    EXPECT_TRUE(reader.atEnd());
    SnapshotWriter again;
    copy.snapshot(again);
    EXPECT_TRUE(again.data() == bytes);
}

TEST(MemorySystem, DirtyEvictionWritebackDetectsLatentFlip)
{
    // The L3 detection channel the campaign leans on: a flip in a
    // dirty line is found by the checked read-out at eviction.
    EdacReporter reporter;
    MemorySystem memory(tinyConfig(), &reporter);
    const Addr addr = memory.allocate(64, "victim");
    memory.writeWord(0, addr, 0xd1d1ULL);  // dirty in L2

    Cache &l2 = memory.l2(0);
    bool flipped = false;
    for (size_t word = 0; word < l2.dataArray().words() && !flipped;
         ++word) {
        if (l2.dataArray().truth(word) == 0xd1d1ULL) {
            l2.dataArray().flipBit(word, 21);
            flipped = true;
        }
    }
    ASSERT_TRUE(flipped);
    const uint64_t before = reporter.tally(CacheLevel::L2).corrected;
    // Force eviction by filling the victim's set: same set every
    // 16 KiB * ... walk conflicting addresses until the line leaves.
    for (int i = 1; l2.contains(addr) && i < 64; ++i) {
        const Addr conflict =
            addr + static_cast<Addr>(i) * l2.config().sizeBytes /
                       l2.config().associativity;
        memory.readWord(0, conflict);
    }
    EXPECT_FALSE(l2.contains(addr));
    EXPECT_EQ(reporter.tally(CacheLevel::L2).corrected, before + 1);
    // And the corrected value survived the writeback.
    EXPECT_EQ(memory.readWord(0, addr), 0xd1d1ULL);
}

TEST(RefetchableArray, ReplaceDestroysFlipSilently)
{
    EdacReporter reporter;
    RefetchableArray array("t", 32, CacheLevel::Tlb, &reporter, 9);
    array.array().flipBit(3, 7);
    EXPECT_TRUE(array.array().isCorrupted(3));
    array.replace(3);
    EXPECT_FALSE(array.array().isCorrupted(3));
    EXPECT_EQ(reporter.totalUpsets(), 0u);
    EXPECT_EQ(array.repairs(), 0u);
}

TEST(RefetchableArray, ResetRestoresDeterministicContents)
{
    EdacReporter reporter;
    RefetchableArray a("t", 16, CacheLevel::Tlb, &reporter, 123);
    RefetchableArray b("t", 16, CacheLevel::Tlb, &reporter, 123);
    a.array().flipBit(5, 1);
    a.reset();
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(a.array().peek(i), b.array().peek(i));
}

/* ------------------- Store runs and exclusive L2s ---------------- */

/** An 8-core (four L2 pair) hierarchy small enough to thrash. */
MemorySystemConfig
eightCoreConfig(bool fast_path)
{
    MemorySystemConfig config = tinyConfig();
    config.numCores = 8;
    config.fastPath = fast_path;
    return config;
}

/** Flip one stored bit of the word at addr in `cache`, if present. */
void
flipCopy(Cache &cache, Addr addr, unsigned bit)
{
    const int way = cache.findWay(addr);
    if (way < 0)
        return;
    const size_t slot =
        cache.geometry().setIndex(addr) * cache.config().associativity +
        static_cast<size_t>(way);
    cache.dataArray().flipBit(
        slot * lineWords + cache.geometry().wordOffset(addr),
        bit % cache.dataArray().bitsPerWord());
}

/** Upsets in every cached copy of addr's word: L1Ds, L2s and L3. */
void
flipCopies(MemorySystem &memory, Addr addr, unsigned bit, bool twice)
{
    const unsigned cores = memory.config().numCores;
    std::vector<Cache *> caches;
    for (unsigned core = 0; core < cores; ++core)
        caches.push_back(&memory.l1d(core));
    for (unsigned pair = 0; pair < cores / 2; ++pair)
        caches.push_back(&memory.l2(pair));
    caches.push_back(&memory.l3());
    for (Cache *cache : caches) {
        flipCopy(*cache, addr, bit);
        // A second flip in the same word: a SECDED UE in L2/L3.
        if (twice)
            flipCopy(*cache, addr, (bit + 17) % 64);
    }
}

void
expectStatsEqual(const CacheStats &a, const CacheStats &b,
                 const std::string &where)
{
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.misses, b.misses) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
    EXPECT_EQ(a.invalidations, b.invalidations) << where;
}

/** Every observable of two hierarchies driven through the same ops. */
void
expectHierarchiesEqual(MemorySystem &a, MemorySystem &b, int op)
{
    EXPECT_EQ(a.accessCount(), b.accessCount()) << "op " << op;
    EXPECT_EQ(a.cyclesAccumulated(), b.cyclesAccumulated()) << "op " << op;
    const unsigned cores = a.config().numCores;
    for (unsigned core = 0; core < cores; ++core)
        expectStatsEqual(a.l1d(core).stats(), b.l1d(core).stats(),
                         msg("l1d.", core, " op ", op));
    for (unsigned pair = 0; pair < cores / 2; ++pair)
        expectStatsEqual(a.l2(pair).stats(), b.l2(pair).stats(),
                         msg("l2.", pair, " op ", op));
    expectStatsEqual(a.l3().stats(), b.l3().stats(), msg("l3 op ", op));
    const std::vector<BeamTarget> targets_a = a.beamTargets();
    const std::vector<BeamTarget> targets_b = b.beamTargets();
    ASSERT_EQ(targets_a.size(), targets_b.size());
    for (size_t i = 0; i < targets_a.size(); ++i) {
        SCOPED_TRACE(msg(targets_a[i].array->name(), " op ", op));
        expectCountersEqual(targets_a[i].array->counters(),
                            targets_b[i].array->counters());
    }
    SnapshotWriter writer_a;
    SnapshotWriter writer_b;
    a.snapshot(writer_a);
    b.snapshot(writer_b);
    EXPECT_EQ(firstDifference(writer_a.data(), writer_b.data()), -1)
        << "op " << op;
}

TEST(MemorySystem, WriteWordsMatchesWriteWord)
{
    // Twin hierarchies take the same seeded ops; store runs go to one
    // as writeWords() and to the other as a writeWord() per word. Reads
    // from every core spread lines over other L1Ds and L2s, upsets land
    // in L1D, L2 and L3 copies, and the patrol scrubber runs, so runs
    // meet shared, dirty, evicted and corrupt lines.
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fast path on" : "fast path off");
        EdacReporter reporter_a;
        EdacReporter reporter_b;
        MemorySystem runs(eightCoreConfig(fast_path), &reporter_a);
        MemorySystem words(eightCoreConfig(fast_path), &reporter_b);
        const size_t lines = 1536;  // past the 1024-line L3
        const Addr base = runs.allocate(lines * 64, "runs");
        ASSERT_EQ(words.allocate(lines * 64, "runs"), base);
        telemetry::MetricShard shard_a;
        telemetry::MetricShard shard_b;

        Rng rng(fast_path ? 0x5707eULL : 0x5708eULL);
        for (int op = 0; op < 6000; ++op) {
            const auto core = static_cast<unsigned>(rng.nextBounded(8));
            const Addr line = base + 64 * rng.nextBounded(lines);
            const uint64_t kind = rng.nextBounded(100);
            if (kind < 45) {
                const size_t count = 1 + rng.nextBounded(8);
                const size_t offset = rng.nextBounded(9 - count);
                uint64_t values[lineWords];
                for (size_t k = 0; k < count; ++k)
                    values[k] = rng.nextU64();
                const Addr addr = line + 8 * offset;
                {
                    telemetry::ShardScope scope(&shard_a);
                    runs.writeWords(core, addr, values, count);
                }
                telemetry::ShardScope scope(&shard_b);
                for (size_t k = 0; k < count; ++k)
                    words.writeWord(core, addr + 8 * k, values[k]);
            } else if (kind < 85) {
                const Addr addr = line + 8 * rng.nextBounded(8);
                uint64_t got_a = 0;
                {
                    telemetry::ShardScope scope(&shard_a);
                    got_a = runs.readWord(core, addr);
                }
                telemetry::ShardScope scope(&shard_b);
                ASSERT_EQ(got_a, words.readWord(core, addr)) << "op " << op;
            } else if (kind < 95) {
                const Addr addr = line + 8 * rng.nextBounded(8);
                const auto bit = static_cast<unsigned>(rng.nextBounded(72));
                const bool twice = rng.nextBool(0.3);
                flipCopies(runs, addr, bit, twice);
                flipCopies(words, addr, bit, twice);
            } else {
                const size_t l2_lines = rng.nextBounded(64);
                const size_t l3_lines = rng.nextBounded(256);
                runs.scrub(l2_lines, l3_lines);
                words.scrub(l2_lines, l3_lines);
            }
            if (op % 1000 == 999) {
                expectHierarchiesEqual(runs, words, op);
                if (HasFailure())
                    return;
            }
        }
        for (const telemetry::Counter counter :
             {telemetry::Counter::SnoopProbes,
              telemetry::Counter::SnoopsFiltered}) {
            const auto index = static_cast<size_t>(counter);
            EXPECT_EQ(shard_a.counters[index], shard_b.counters[index])
                << telemetry::counterName(counter);
        }
        EXPECT_GT(shard_a.counters[static_cast<size_t>(
                      telemetry::Counter::SnoopProbes)],
                  0u);
        EXPECT_GT(reporter_a.totalUncorrected(), 0u);
        EXPECT_EQ(reporter_a.totalCorrected(), reporter_b.totalCorrected());
        EXPECT_EQ(reporter_a.totalUncorrected(),
                  reporter_b.totalUncorrected());
    }
}

TEST(MemorySystem, OwnedLineWritesCountSnoopsLikeTheFullSnoop)
{
    // Counts worked out from the protocol: every L2 write snoops the 3
    // other L2s, and a snoop is filtered when that L2 holds no line of
    // the bucket. Pair 1 holds a line y of x's bucket, so its probe for
    // x is never filtered -- whether the write misses (a tag search)
    // or hits an owned line (counted only).
    EdacReporter reporter;
    MemorySystem memory(eightCoreConfig(true), &reporter);
    const size_t lines = size_t{1} << 16;
    const Addr x = memory.allocate(lines * 64, "snoops");
    Addr y = x + 64;
    while (ResidencyTable::bucket(y) != ResidencyTable::bucket(x))
        y += 64;
    ASSERT_LT(y, x + lines * 64);
    memory.readWord(2, y);

    telemetry::MetricShard shard;
    {
        telemetry::ShardScope scope(&shard);
        memory.writeWord(0, x, 1);      // L2 miss: full snoop
        memory.writeWord(1, x + 8, 2);  // owned by pair 0's L2
        const uint64_t values[6] = {3, 4, 5, 6, 7, 8};
        memory.writeWords(0, x + 16, values, 6);
    }
    EXPECT_EQ(shard.counters[static_cast<size_t>(
                  telemetry::Counter::SnoopProbes)],
              3u * 8);
    EXPECT_EQ(shard.counters[static_cast<size_t>(
                  telemetry::Counter::SnoopsFiltered)],
              2u * 8);
    for (uint64_t k = 0; k < 8; ++k)
        EXPECT_EQ(memory.readWord(5, x + 8 * k), k + 1);
}

/** Lines of [base, base + lines * 64) valid in more than one L2. */
size_t
linesInTwoL2s(MemorySystem &memory, Addr base, size_t lines)
{
    size_t shared = 0;
    const unsigned pairs = memory.config().numCores / 2;
    for (size_t i = 0; i < lines; ++i) {
        unsigned holders = 0;
        for (unsigned pair = 0; pair < pairs; ++pair)
            holders += memory.l2(pair).contains(base + 64 * i) ? 1 : 0;
        shared += holders > 1 ? 1 : 0;
    }
    return shared;
}

TEST(MemorySystem, L2sStayExclusive)
{
    // The owned-line snoop skip rests on this invariant: every L2 fill
    // snoops the other L2s first, and a UE reload refills only a line
    // the same L2 just held. Random traffic from all eight cores, with
    // single and double upsets in L2/L3 copies (CE repairs and clean
    // UE reloads), patrol scrubs and flushes, must never leave a line
    // valid in two L2s.
    EdacReporter reporter;
    MemorySystem memory(eightCoreConfig(true), &reporter);
    const size_t lines = 640;
    const Addr base = memory.allocate(lines * 64, "exclusive");
    Rng rng(0xe8c1ULL);
    for (int op = 0; op < 8000; ++op) {
        const auto core = static_cast<unsigned>(rng.nextBounded(8));
        const Addr addr = base + 8 * rng.nextBounded(lines * 8);
        const uint64_t kind = rng.nextBounded(100);
        if (kind < 40) {
            memory.writeWord(core, addr, rng.nextU64());
        } else if (kind < 85) {
            memory.readWord(core, addr);
        } else if (kind < 96) {
            const unsigned pair = core / 2;
            const auto bit = static_cast<unsigned>(rng.nextBounded(64));
            flipCopy(memory.l2(pair), addr, bit);
            if (rng.nextBool(0.5))
                flipCopy(memory.l2(pair), addr, (bit + 9) % 64);
            if (rng.nextBool(0.3)) {
                flipCopy(memory.l3(), addr, bit);
                flipCopy(memory.l3(), addr, (bit + 5) % 64);
            }
        } else if (kind < 99) {
            memory.scrub(rng.nextBounded(128), rng.nextBounded(256));
        } else {
            memory.flushAll();
        }
        ASSERT_EQ(linesInTwoL2s(memory, base, lines), 0u) << "op " << op;
    }
    EXPECT_GT(reporter.tally(CacheLevel::L2).uncorrected, 0u);
}

TEST(MemorySystemDeathTest, RestoreRejectsLineValidInTwoL2s)
{
    // Build a state the protocol never reaches -- one line in two L2s
    // -- by allocating into the caches directly, then restore it.
    EdacReporter reporter;
    MemorySystem memory(eightCoreConfig(true), &reporter);
    const Addr addr = memory.allocate(64, "shared");
    memory.l2(0).allocate(addr, filledLine(1), false);
    memory.l2(2).allocate(addr, filledLine(1), false);
    SnapshotWriter writer;
    memory.snapshot(writer);
    const std::vector<uint8_t> bytes = writer.take();
    EXPECT_DEATH(
        {
            EdacReporter reporter2;
            MemorySystem copy(eightCoreConfig(true), &reporter2);
            SnapshotReader reader(bytes);
            copy.restore(reader);
        },
        "valid in two L2s");
}

/* ------------------------- EdacReporter -------------------------- */

TEST(EdacReporter, TalliesPerLevel)
{
    EdacReporter reporter(true);
    reporter.post(1, CacheLevel::L2, EdacKind::Corrected, "l2.0");
    reporter.post(2, CacheLevel::L3, EdacKind::Uncorrected, "l3");
    reporter.post(3, CacheLevel::L3, EdacKind::Corrected, "l3");
    EXPECT_EQ(reporter.tally(CacheLevel::L2).corrected, 1u);
    EXPECT_EQ(reporter.tally(CacheLevel::L3).uncorrected, 1u);
    EXPECT_EQ(reporter.totalCorrected(), 2u);
    EXPECT_EQ(reporter.totalUncorrected(), 1u);
    EXPECT_EQ(reporter.totalUpsets(), 3u);
    ASSERT_EQ(reporter.log().size(), 3u);
    EXPECT_EQ(reporter.log()[1].source, "l3");
    reporter.clear();
    EXPECT_EQ(reporter.totalUpsets(), 0u);
}

} // namespace
} // namespace xser::mem
