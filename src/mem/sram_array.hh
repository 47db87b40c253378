/**
 * @file
 * Bit-true SRAM array model with an error-protection overlay.
 *
 * This is the foundation of the whole study: every cache/TLB data array in
 * the simulated X-Gene 2 is an SramArray holding *actual* bits plus stored
 * check bits. The beam flips stored bits; detection only happens when a
 * word is subsequently read (by the workload, a fill, or the patrol
 * scrubber), which is why observed upset rates sit below raw upset rates
 * exactly as the paper discusses in Section 3.5.
 *
 * The ground truth of every corrupted word (what software last wrote,
 * and its check bits) lets the simulator ground-truth silent corruption
 * (parity-even escapes, SECDED miscorrections) that real hardware cannot
 * see -- used only for accounting, never fed back into simulated
 * behaviour. Corruption is rare, so the truth lives in a sparse fault
 * map over the stored words: an uncorrupted word *is* its own truth.
 */

#ifndef XSER_MEM_SRAM_ARRAY_HH
#define XSER_MEM_SRAM_ARRAY_HH

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ecc/ecc_types.hh"
#include "ecc/secded.hh"
#include "sim/logging.hh"
#include "sim/sim_clock.hh"
#include "sim/snapshot.hh"
#include "trace/trace_sink.hh"

namespace xser::mem {

/** Protection scheme of an SRAM array (Table 1 of the paper). */
enum class Protection : uint8_t {
    None,    ///< unprotected (not used by X-Gene 2 caches, kept for
             ///< ablations)
    Parity,  ///< even parity per 64-bit word: detects odd flip counts
    Secded,  ///< SECDED(72,64): corrects 1, detects 2 flips per word
};

/** Human-readable name of a protection scheme. */
const char *protectionName(Protection protection);

/** Result of a checked read from a protected word. */
struct ReadOutcome {
    uint64_t value;            ///< data delivered to the consumer
    ecc::CheckStatus status;   ///< protection verdict (ground-truthed)
    bool silentCorruption;     ///< delivered value differs from the truth
};

/** Lifetime statistics of one array, for raw-vs-detected analysis. */
struct SramCounters {
    uint64_t bitFlipsInjected = 0;   ///< raw upset bits from the beam
    uint64_t upsetEventsInjected = 0;///< raw upset events (1 per cluster)
    uint64_t corrected = 0;          ///< CE reports (incl. miscorrections)
    uint64_t uncorrected = 0;        ///< UE reports
    uint64_t parityErrors = 0;       ///< parity detections
    uint64_t miscorrections = 0;     ///< ground truth: CE with wrong data
    uint64_t silentEscapes = 0;      ///< reads delivering corrupt data
                                     ///< with a Clean verdict
    uint64_t overwrittenFlips = 0;   ///< corrupt words overwritten before
                                     ///< any read saw them
};

/**
 * A named array of 64-bit words with stored check bits and fault overlay.
 */
class SramArray
{
  public:
    /**
     * @param name Array name used in EDAC attribution (e.g. "l3.data").
     * @param words Capacity in 64-bit words.
     * @param protection Protection scheme for stored words.
     */
    SramArray(std::string name, size_t words, Protection protection);

    const std::string &name() const { return name_; }
    Protection protection() const { return protection_; }

    /** Capacity in 64-bit data words. */
    size_t words() const { return data_.size(); }

    /** Stored bits per word: 64 data + check bits of the scheme. */
    unsigned bitsPerWord() const { return bitsPerWord_; }

    /** Total stored bits, the footprint the beam samples over. */
    uint64_t totalBits() const
    {
        return static_cast<uint64_t>(words()) * bitsPerWord();
    }

    /**
     * Write a word: stores data (which becomes the truth) and marks the
     * check bits for lazy regeneration (see materializeCheck). Pending
     * flips in the word are silently destroyed (counted as
     * overwritten), mirroring real hardware.
     */
    void
    write(size_t index, uint64_t value)
    {
        XSER_ASSERT(index < data_.size(), "SRAM write out of range");
        if (state_[index] == wordCorrupt)
            dropTruth(index);
        data_[index] = value;
        // Check bits are derived lazily: a freshly written word is
        // clean by construction, and encode() is deterministic, so
        // deferring it to the first flip or checked read that actually
        // consumes the check bits yields the same stored values --
        // just not paid per write.
        state_[index] = wordStale;
    }

    /**
     * Write `count` consecutive words starting at `base`: observably
     * identical to count write() calls in ascending order, as one bulk
     * copy when no word in the range is corrupt.
     */
    void
    writeRange(size_t base, const uint64_t *values, size_t count)
    {
        XSER_ASSERT(base + count <= data_.size(),
                    "SRAM range write out of range");
        if (anyCorruptInRange(base, count)) {
            for (size_t i = 0; i < count; ++i)
                write(base + i, values[i]);
            return;
        }
        std::memcpy(data_.data() + base, values, count * sizeof(uint64_t));
        std::memset(state_.data() + base, wordStale, count);
    }

    /**
     * Checked read: verifies protection, corrects in place where the
     * scheme allows, and reports what hardware would report. The outcome
     * additionally carries ground-truth flags the campaign uses for
     * Section 6.2 style analysis.
     */
    ReadOutcome
    read(size_t index)
    {
        if (fastPath_ && state_[index] != wordCorrupt) {
            // Clean word: every codec verdicts Clean on a word matching
            // its truth, delivers the stored data unchanged, and updates
            // no counter and no trace -- short-circuit all of it.
            return {data_[index], ecc::CheckStatus::Clean, false};
        }
        return readChecked(index);
    }

    /**
     * Clean bulk read of [base, base + count) into `out`. With the fast
     * path on and no word of the range corrupt, copies the stored words
     * and returns true -- observably identical to count clean read()
     * calls. Otherwise returns false without touching anything, and
     * the caller reads word by word.
     */
    bool
    readRange(size_t base, size_t count, uint64_t *out) const
    {
        XSER_ASSERT(base + count <= data_.size(),
                    "SRAM range read out of range");
        if (!fastPath_ || anyCorruptInRange(base, count))
            return false;
        std::memcpy(out, data_.data() + base, count * sizeof(uint64_t));
        return true;
    }

    /** Raw stored bits without any checking (debug/test aid). */
    uint64_t peek(size_t index) const;

    /** Ground truth for a word (what software last wrote). */
    uint64_t truth(size_t index) const;

    /** True when the stored word (incl. check bits) deviates from truth. */
    bool isCorrupted(size_t index) const;

    /** Number of words currently deviating from truth. */
    size_t corruptWords() const { return truth_.size(); }

    /** True when any word in [base, base + count) deviates from truth. */
    bool
    anyCorruptInRange(size_t base, size_t count) const
    {
        if (truth_.empty())
            return false;
        XSER_ASSERT(base + count <= data_.size(),
                    "SRAM corruption scan out of range");
        for (size_t i = 0; i < count; ++i) {
            if (state_[base + i] == wordCorrupt)
                return true;
        }
        return false;
    }

    /**
     * Enable/disable the clean-read fast path. With it on, a read of an
     * uncorrupted word short-circuits past the codec: by the corruption
     * invariant the codec would verdict Clean, deliver the stored data
     * unchanged, touch no counters, and emit no trace -- so the
     * shortcut is observably identical (differential-tested). Off forces
     * every read through the full codec (the reference path).
     */
    void setFastPath(bool enabled) { fastPath_ = enabled; }
    bool fastPath() const { return fastPath_; }

    /**
     * Flip one stored bit.
     *
     * @param index Word index.
     * @param stored_bit Bit position within the stored word footprint:
     *        [0, 64) selects a data bit, [64, bitsPerWord()) a check bit.
     */
    void flipBit(size_t index, unsigned stored_bit);

    /** Record that one upset event (possibly multi-bit) was injected. */
    void noteUpsetEvent() { ++counters_.upsetEventsInjected; }

    /** Lifetime statistics. */
    const SramCounters &counters() const { return counters_; }

    /** Reset contents to zero truth and clear statistics. */
    void reset();

    /**
     * Serialize the full checkpointable state: stored bits, check
     * bits, laziness flags, counters -- and, only when corruption is
     * present, the dense truth and corruption-flag vectors, rebuilt
     * from the fault map (a clean array's truth equals its stored
     * state by the corruption invariant, so it compresses away).
     * Wiring (trace sink, time source, fast-path flag) is
     * configuration, not state, and is not serialized.
     */
    void snapshot(SnapshotWriter &writer) const;

    /**
     * Restore state captured by snapshot() into an identically
     * configured array (same word count and protection scheme --
     * validated, fatal on mismatch).
     */
    void restore(SnapshotReader &reader);

    /**
     * Attach a lifecycle trace sink (null detaches). The array's read
     * paths are the single chokepoint where every detection and silent
     * escape becomes visible, so emission here is 1:1 with the counter
     * increments above -- the invariant the EDAC cross-check relies on.
     *
     * @param id This array's row in the trace file's array table.
     */
    void setTrace(trace::TraceSink *sink, uint32_t id)
    {
        traceSink_ = sink;
        traceId_ = id;
    }

    trace::TraceSink *traceSink() const { return traceSink_; }
    uint32_t traceId() const { return traceId_; }

    /** Simulated-time source for trace timestamps (null = t0). */
    void setTimeSource(const Tick *now) { now_ = now; }

    /** Current simulated time for emitted events. */
    Tick now() const { return now_ ? *now_ : 0; }

  private:
    /** Full-codec read path behind read()'s clean-word short-circuit. */
    ReadOutcome readChecked(size_t index);

    ReadOutcome readParity(size_t index);
    ReadOutcome readSecded(size_t index);

    /** Record one lifecycle event for word `index` of this array. */
    void emit(trace::EventType type, size_t index, uint32_t bit,
              uint64_t aux);

    /** Ground truth of a corrupted word: data and its check bits. */
    struct Truth {
        uint64_t data;
        uint8_t check;
    };

    /** Truth of any word: the fault map entry, or the word itself. */
    Truth
    truthOf(size_t index) const
    {
        if (state_[index] == wordCorrupt)
            return truth_.at(index);
        return {data_[index], check_[index]};
    }

    /**
     * Re-derive the corruption state of word `index` after data_/check_
     * changed underneath its truth (a beam flip or an in-place
     * correction), keeping the fault map in step.
     */
    void settle(size_t index, const Truth &truth);

    /** Forget the truth of a corrupt word about to be overwritten. */
    void dropTruth(size_t index);

    /**
     * Derive check_[index] for a word whose last write deferred the
     * encode. Every consumer of the check bits (checked reads, flips)
     * calls this first; while a word is stale it is clean by
     * construction, so laziness is value-preserving.
     */
    void materializeCheck(size_t index);

    /** Per-word state byte: exactly one of these values. */
    static constexpr uint8_t wordClean = 0;
    /**
     * Written, check bits not yet derived: check_ still holds the
     * previous value's bits. Cleared by materializeCheck() and reset().
     */
    static constexpr uint8_t wordStale = 1;
    /**
     * Stored data or check bits deviate from the truth, which is held
     * in truth_. Exact, the invariant behind every fast path:
     * maintained on write, flip, repair, and reset; never approximate
     * (a flip pair that cancels clears it). A corrupt word is never
     * stale (flips and repairs materialize first).
     */
    static constexpr uint8_t wordCorrupt = 2;

    std::string name_;
    Protection protection_;
    unsigned bitsPerWord_;
    std::vector<uint64_t> data_;    ///< stored (possibly corrupt) data
    std::vector<uint8_t> check_;    ///< stored check bits
    std::vector<uint8_t> state_;    ///< wordClean/wordStale/wordCorrupt
    /** Sparse fault map: the truth of exactly the corrupt words. */
    std::map<size_t, Truth> truth_;
    /**
     * Truth check bits of stale words that overwrote a corrupt word
     * whose stored check bits were flipped: the write leaves both the
     * stored and the true check bits as they were, so the two differ
     * until materializeCheck(). Never consulted by the simulation;
     * kept so the snapshot's truth-check vector stays exact.
     */
    std::map<size_t, uint8_t> staleTruthCheck_;
    bool fastPath_ = true;
    SramCounters counters_;
    trace::TraceSink *traceSink_ = nullptr;
    uint32_t traceId_ = trace::noArray;
    const Tick *now_ = nullptr;
};

} // namespace xser::mem

#endif // XSER_MEM_SRAM_ARRAY_HH
