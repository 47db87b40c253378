/**
 * @file
 * Set-associative cache with a bit-true protected data array.
 *
 * The cache stores line data in an SramArray, so beam-injected flips live
 * in genuine storage and every read-out passes through the protection
 * codec. Recovery *policy* (parity refetch, clean-line reload) lives in
 * MemorySystem, which owns the hierarchy; this class provides the
 * mechanisms: probe, checked word/line access, allocate-with-eviction,
 * and invalidation.
 */

#ifndef XSER_MEM_CACHE_HH
#define XSER_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache_geometry.hh"
#include "mem/edac_reporter.hh"
#include "mem/sram_array.hh"

namespace xser::mem {

/** Write policy of a cache level. */
enum class WritePolicy : uint8_t {
    WriteThrough,  ///< L1D on X-Gene 2: lower level always has truth
    WriteBack,     ///< L2/L3: dirty lines only exist here
};

/** Static configuration of one cache. */
struct CacheConfig {
    std::string name;           ///< e.g. "l2.0"
    size_t sizeBytes = 0;
    size_t lineBytes = 64;
    unsigned associativity = 8;
    Protection protection = Protection::Secded;
    WritePolicy writePolicy = WritePolicy::WriteBack;
    CacheLevel level = CacheLevel::L2;
};

/** 64-bit words per line: every level uses 64-byte lines. */
inline constexpr size_t lineWords = 8;

/** One line's data, moved between levels by value. */
using LineData = std::array<uint64_t, lineWords>;

/** Victim line handed back by allocate(). */
struct EvictedLine {
    bool valid = false;          ///< a line was evicted
    bool dirty = false;          ///< it needs writing back
    Addr address = 0;            ///< base address of the victim line
    LineData data{};             ///< victim data (checked read-out,
                                 ///< dirty victims only)
    bool hadUncorrectable = false; ///< a UE fired while reading it out
};

/**
 * Resident-line counts per hash bucket for a group of caches, stored
 * bucket-major: row b holds every member cache's count for bucket b,
 * so a coherence pass over all of them reads one row. A cache's
 * counts are updated by every path that changes its residency
 * (allocate, eviction, invalidation, drain, scrub poisoning), so a
 * zero count is exact -- hash collisions only cause spurious probes,
 * never missed ones.
 */
class ResidencyTable
{
  public:
    static constexpr unsigned bucketBits = 12;

    /** @param columns Number of member caches. */
    explicit ResidencyTable(unsigned columns)
        : columns_(columns), counts_((size_t{1} << bucketBits) * columns)
    {
    }

    /** Bucket of a line base address. */
    static size_t
    bucket(Addr line_base)
    {
        return static_cast<size_t>((line_base * 0x9e3779b97f4a7c15ULL) >>
                                   (64 - bucketBits));
    }

    /** Counts of every member cache for one bucket. */
    const uint32_t *row(size_t bucket) const
    {
        return &counts_[bucket * columns_];
    }

    uint32_t &
    count(size_t bucket, unsigned column)
    {
        return counts_[bucket * columns_ + column];
    }

    /** Zero one member cache's counts. */
    void
    clearColumn(unsigned column)
    {
        for (size_t b = 0; b < (size_t{1} << bucketBits); ++b)
            counts_[b * columns_ + column] = 0;
    }

  private:
    unsigned columns_;
    std::vector<uint32_t> counts_;
};

/** Hit/miss and protection statistics for one cache. */
struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t invalidations = 0;
};

/**
 * One cache level instance. See file comment for the policy split
 * between this class and MemorySystem.
 */
class Cache
{
  public:
    /**
     * @param config Geometry, protection, and policy (64-byte lines).
     * @param reporter EDAC sink for CE/UE events (may not be null).
     * @param residency Shared residency table to keep this cache's
     *        counts in (null = a private one-column table).
     * @param column This cache's column in `residency`.
     */
    Cache(const CacheConfig &config, EdacReporter *reporter,
          ResidencyTable *residency = nullptr, unsigned column = 0);

    const std::string &name() const { return config_.name; }
    const CacheConfig &config() const { return config_; }
    const CacheGeometry &geometry() const { return geometry_; }
    const CacheStats &stats() const { return stats_; }

    /** The protected data array (exposed for beam targeting). */
    SramArray &dataArray() { return dataArray_; }
    const SramArray &dataArray() const { return dataArray_; }

    /** Set the simulated-time source for EDAC and trace timestamps. */
    void
    setTimeSource(const Tick *now)
    {
        now_ = now;
        dataArray_.setTimeSource(now);
    }

    /**
     * Way holding addr, or -1. The hierarchy owner probes once and
     * passes the found way to the word/line accessors below, so a
     * hit costs a single tag search instead of one per operation.
     */
    int
    findWay(Addr addr) const
    {
        const Addr key = (geometry_.tag(addr) << 1) | 1;
        const Addr *tags =
            &tagValid_[geometry_.setIndex(addr) * config_.associativity];
        for (unsigned way = 0; way < config_.associativity; ++way) {
            if (tags[way] == key)
                return static_cast<int>(way);
        }
        return -1;
    }

    /** True when the line containing addr is present. */
    bool contains(Addr addr) const { return findWay(addr) >= 0; }

    /** True when the line containing addr is present and dirty. */
    bool isDirty(Addr addr) const;

    /** True when the line at (addr, way) -- from findWay() -- is dirty. */
    bool
    wayDirty(Addr addr, int way) const
    {
        return (stamp_[slotOf(addr, way)] & 1) != 0;
    }

    /**
     * Checked read of the 64-bit word at addr; the line must be present.
     * CE/UE events are posted to the reporter. Status reflects the
     * protection verdict, including ground-truthed miscorrection.
     */
    ReadOutcome readWord(Addr addr) { return readWord(addr, findWay(addr)); }

    /** As readWord(addr), with the way already found by findWay(). */
    ReadOutcome
    readWord(Addr addr, int way)
    {
        XSER_ASSERT(way >= 0, msg("readWord miss in ", config_.name));
        const size_t slot = slotOf(addr, way);
        touch(slot, false);
        ReadOutcome outcome =
            dataArray_.read(slot * lineWords + geometry_.wordOffset(addr));
        // Clean outcomes post nothing (silent escapes are by definition
        // invisible to EDAC), so the call is skipped for them.
        if (outcome.status != ecc::CheckStatus::Clean)
            postEdac(outcome);
        return outcome;
    }

    /**
     * Write the word at addr; the line must be present. Marks the line
     * dirty under write-back policy.
     */
    void writeWord(Addr addr, uint64_t value)
    {
        writeWord(addr, value, findWay(addr));
    }

    /** As writeWord(addr, value), with the way already found. */
    void
    writeWord(Addr addr, uint64_t value, int way)
    {
        XSER_ASSERT(way >= 0, msg("writeWord miss in ", config_.name));
        const size_t slot = slotOf(addr, way);
        touch(slot, config_.writePolicy == WritePolicy::WriteBack);
        dataArray_.write(slot * lineWords + geometry_.wordOffset(addr),
                         value);
    }

    /**
     * Write `count` consecutive words of the line at (addr, way) --
     * from findWay() -- starting at addr's word. Same effect as one
     * writeWord() per word in ascending order: the LRU clock advances
     * once per word.
     */
    void
    writeRun(Addr addr, const uint64_t *values, size_t count, int way)
    {
        XSER_ASSERT(way >= 0, msg("writeRun miss in ", config_.name));
        const size_t offset = geometry_.wordOffset(addr);
        XSER_ASSERT(count > 0 && offset + count <= lineWords,
                    msg("writeRun crosses a line in ", config_.name));
        const size_t slot = slotOf(addr, way);
        useCounter_ += count - 1;
        touch(slot, config_.writePolicy == WritePolicy::WriteBack);
        dataArray_.writeRange(slot * lineWords + offset, values, count);
    }

    /**
     * Checked read-out of the full line containing addr (for fills to an
     * upper level or writebacks). The line must be present.
     *
     * @param out Receives the line's words.
     * @return true when any word raised an uncorrectable error.
     */
    bool readLine(Addr addr, LineData &out)
    {
        return readLine(addr, out, findWay(addr));
    }

    /** As readLine(addr, out), with the way already found. */
    bool readLine(Addr addr, LineData &out, int way);

    /**
     * Install a line (write-allocate or fill).
     *
     * @param addr Any address within the line.
     * @param line The line's data.
     * @param dirty Install state (true for write-allocate in WB caches).
     * @return The evicted victim, if one had to make room.
     */
    EvictedLine allocate(Addr addr, const LineData &line, bool dirty);

    /** Drop the line containing addr if present (no writeback). */
    void invalidate(Addr addr);

    /** Drop the line at (addr, way) -- from findWay() -- unconditionally. */
    void invalidateWay(Addr addr, int way);

    /** Drop every line (no writebacks); keeps injected-flip counters. */
    void invalidateAll();

    /** Fraction of lines currently valid, for occupancy diagnostics. */
    double occupancy() const;

    /** Base addresses of the valid lines, in slot order. */
    std::vector<Addr> validLines() const;

    /** Hit/miss accounting (driven by the hierarchy owner). */
    void recordHit(uint64_t hits = 1) { stats_.hits += hits; }
    void recordMiss() { ++stats_.misses; }

    /** Result of scrubbing one line slot. */
    struct ScrubResult {
        bool scanned = false;         ///< slot held a valid line
        bool uncorrectable = false;   ///< a UE was found in it
        bool dirty = false;           ///< it was dirty (needs writeback)
        Addr address = 0;             ///< line base address
        LineData data{};              ///< read-out data (when dirty UE)
    };

    /**
     * Patrol-scrub one line slot (index in [0, numLines)): checked read
     * of every word, repairing correctable errors in place. On an
     * uncorrectable error the line is invalidated so it cannot keep
     * re-reporting; dirty victims hand their (corrupt) data back for
     * writeback by the owner.
     */
    ScrubResult scrubLine(size_t line_index);

    /**
     * Read out (checked) every dirty line and invalidate everything.
     * Used to flush between characterization phases.
     *
     * @return (address, data) pairs that must be written downstream.
     */
    std::vector<std::pair<Addr, LineData>> drainAll();

    /**
     * Serialize the checkpointable state: line metadata (invalid lines
     * keep their last tag), LRU counter, statistics, and the protected
     * data array. The residency counts are derived state and are
     * recomputed on restore.
     */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state captured by snapshot() (same geometry required). */
    void restore(SnapshotReader &reader);

    /** Total SRAM bits of the data array (beam footprint). */
    uint64_t footprintBits() const { return dataArray_.totalBits(); }

    /** True when no word of the data array deviates from its truth. */
    bool arrayClean() const { return dataArray_.corruptWords() == 0; }

  private:
    /**
     * Conservative presence test from the residency counts: false
     * means the line is definitely absent, true that a tag search is
     * needed. (The hierarchy owner reads the shared table's rows
     * directly.)
     */
    bool
    mayContain(Addr addr) const
    {
        return residency_->row(residencyBucket(addr))[residencyColumn_] !=
               0;
    }

    /** Residency-table bucket of the line containing addr. */
    size_t
    residencyBucket(Addr addr) const
    {
        return ResidencyTable::bucket(geometry_.lineBase(addr));
    }

    void
    residencyAdd(Addr addr)
    {
        ++residency_->count(residencyBucket(addr), residencyColumn_);
    }

    void
    residencyRemove(Addr addr)
    {
        --residency_->count(residencyBucket(addr), residencyColumn_);
    }

    /** Line slot (set * associativity + way) of a found way. */
    size_t
    slotOf(Addr addr, int way) const
    {
        return geometry_.setIndex(addr) * config_.associativity +
               static_cast<unsigned>(way);
    }

    /** Stamp a slot as just used, marking it dirty if `dirty`. */
    void
    touch(size_t slot, bool dirty)
    {
        stamp_[slot] = (++useCounter_ << 1) | (stamp_[slot] & 1) |
                       (dirty ? 1 : 0);
    }

    /** Victim way in addr's set (invalid way first, else LRU). */
    unsigned victimWay(size_t set) const;

    /**
     * Checked read-out of line slot `slot` into `out`, posting EDAC
     * events word by word (one bulk copy when the line is clean).
     *
     * @return true when any word was left uncorrectable.
     */
    bool readOut(size_t slot, LineData &out);

    /** Post an EDAC event matching a read outcome, if any. */
    void postEdac(const ReadOutcome &outcome);

    /** True when an outcome leaves the word uncorrectably wrong. */
    bool outcomeUncorrectable(const ReadOutcome &outcome) const;

    /** Current simulated time for event timestamps. */
    Tick now() const { return now_ ? *now_ : 0; }

    CacheConfig config_;
    CacheGeometry geometry_;
    EdacReporter *reporter_;
    SramArray dataArray_;
    const Tick *now_ = nullptr;

    /**
     * Per line slot (numSets * associativity): tag << 1 | valid, so a
     * tag search compares one word per way. Invalidation clears only
     * the valid bit; the stale tag is kept (and snapshotted).
     */
    std::vector<Addr> tagValid_;
    /**
     * Per slot: LRU timestamp << 1 | dirty. Timestamps are unique, so
     * comparing whole words orders slots by timestamp alone.
     */
    std::vector<uint64_t> stamp_;

    std::unique_ptr<ResidencyTable> ownResidency_;  ///< when not shared
    ResidencyTable *residency_;
    unsigned residencyColumn_;

    uint64_t useCounter_ = 0;
    CacheStats stats_;
};

} // namespace xser::mem

#endif // XSER_MEM_CACHE_HH
