/**
 * @file
 * Per-core front-end activity model.
 *
 * Workload data traffic flows through the bit-true hierarchy, but
 * instruction fetch and TLB lookups are not executed natively (the
 * kernels are compiled C++). Each Core therefore drives a synthetic
 * touch process over its L1I and TLB arrays, confined to the running
 * workload's code/page footprint: this is what gives those parity
 * arrays their *detection* opportunities -- an upset in a never-touched
 * word goes unobserved, exactly as on the real chip (Section 3.5).
 */

#ifndef XSER_CPU_CORE_HH
#define XSER_CPU_CORE_HH

#include <cstdint>

#include "mem/memory_system.hh"
#include "sim/rng.hh"

namespace xser::cpu {

/** Touch-process rates of one core. */
struct CoreConfig {
    unsigned id = 0;
    /** Synthetic instruction-fetch touches per data access. */
    double ifetchTouchesPerAccess = 0.50;
    /** Synthetic TLB-entry touches per data access. */
    double tlbTouchesPerAccess = 0.25;
    /**
     * Fraction of touches that are replacements (refills) rather than
     * checked reads: a refill overwrites the entry without reading it,
     * destroying latent flips undetected. This is what keeps the
     * parity arrays' detection efficiency below 100 %.
     */
    double ifetchReplaceFraction = 0.40;
    double tlbReplaceFraction = 0.60;
};

/**
 * One Armv8 core's front-end driver.
 */
class Core
{
  public:
    /**
     * @param config Touch rates.
     * @param memory Hierarchy owning this core's L1I/TLB arrays.
     * @param rng Dedicated stream for footprint sampling.
     */
    Core(const CoreConfig &config, mem::MemorySystem *memory, Rng rng);

    unsigned id() const { return config_.id; }

    /**
     * Set the active workload's footprints.
     *
     * @param code_words L1I words the workload's code spans.
     * @param tlb_entries TLB entries its pages occupy.
     */
    void setFootprint(size_t code_words, size_t tlb_entries);

    /**
     * Drive the front end for a quantum of `accesses` data accesses:
     * touch proportional numbers of I-fetch words and TLB entries
     * within the current footprints (carrying fractional remainders).
     */
    void driveQuantum(uint64_t accesses);

    /**
     * Serialize checkpointable state: the RNG stream (which advances
     * with every quantum, so the golden prefix leaves it mid-sequence)
     * plus the fractional touch carries and the active footprints.
     */
    void
    snapshot(SnapshotWriter &writer) const
    {
        for (const uint64_t word : rng_.state())
            writer.u64(word);
        writer.f64(rng_.cachedGaussian());
        writer.u8(rng_.hasCachedGaussian() ? 1 : 0);
        writer.f64(ifetchCarry_);
        writer.f64(tlbCarry_);
        writer.u64(codeWords_);
        writer.u64(tlbEntries_);
    }

    /** Restore state captured by snapshot(). */
    void
    restore(SnapshotReader &reader)
    {
        std::array<uint64_t, 4> state;
        for (uint64_t &word : state)
            word = reader.u64();
        const double cached = reader.f64();
        const bool has_cached = reader.u8() != 0;
        rng_.restoreState(state, cached, has_cached);
        ifetchCarry_ = reader.f64();
        tlbCarry_ = reader.f64();
        codeWords_ = static_cast<size_t>(reader.u64());
        tlbEntries_ = static_cast<size_t>(reader.u64());
        // driveQuantum draws indices below these without wrapping.
        XSER_ASSERT(codeWords_ >= 1 &&
                        codeWords_ <= memory_->l1i(config_.id).words(),
                    "snapshot code footprint out of range");
        XSER_ASSERT(tlbEntries_ >= 1 &&
                        tlbEntries_ <= memory_->tlb(config_.id).words(),
                    "snapshot TLB footprint out of range");
    }

  private:
    CoreConfig config_;
    mem::MemorySystem *memory_;
    Rng rng_;
    size_t codeWords_;
    size_t tlbEntries_;
    double ifetchCarry_ = 0.0;
    double tlbCarry_ = 0.0;
};

} // namespace xser::cpu

#endif // XSER_CPU_CORE_HH
