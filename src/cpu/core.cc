/**
 * @file
 * Core implementation.
 */

#include "cpu/core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xser::cpu {

namespace {

/**
 * Draw `due` word indices in [0, footprint) of `array` and touch each,
 * or replace it with probability `replace_fraction`. The rejection
 * threshold is computed once for the batch (the draws are those of
 * nextBounded(footprint)), and footprint never exceeds the array, so
 * the indices need no wrap.
 */
void
touchFootprint(Rng &rng, mem::RefetchableArray &array, uint64_t due,
               size_t footprint, double replace_fraction)
{
    const uint64_t threshold = Rng::boundedThreshold(footprint);
    for (uint64_t i = 0; i < due; ++i) {
        const size_t index = rng.nextBounded(footprint, threshold);
        if (rng.nextBool(replace_fraction))
            array.replace(index);
        else
            array.touch(index);
    }
}

} // namespace

Core::Core(const CoreConfig &config, mem::MemorySystem *memory, Rng rng)
    : config_(config), memory_(memory), rng_(rng)
{
    XSER_ASSERT(memory_ != nullptr, "core needs a memory system");
    codeWords_ = memory_->l1i(config_.id).words();
    tlbEntries_ = memory_->tlb(config_.id).words();
}

void
Core::setFootprint(size_t code_words, size_t tlb_entries)
{
    const size_t l1i_words = memory_->l1i(config_.id).words();
    const size_t tlb_words = memory_->tlb(config_.id).words();
    codeWords_ = std::clamp<size_t>(code_words, 1, l1i_words);
    tlbEntries_ = std::clamp<size_t>(tlb_entries, 1, tlb_words);
}

void
Core::driveQuantum(uint64_t accesses)
{
    ifetchCarry_ += config_.ifetchTouchesPerAccess *
                    static_cast<double>(accesses);
    tlbCarry_ += config_.tlbTouchesPerAccess *
                 static_cast<double>(accesses);

    auto ifetch_due = static_cast<uint64_t>(ifetchCarry_);
    auto tlb_due = static_cast<uint64_t>(tlbCarry_);
    ifetchCarry_ -= static_cast<double>(ifetch_due);
    tlbCarry_ -= static_cast<double>(tlb_due);

    touchFootprint(rng_, memory_->l1i(config_.id), ifetch_due, codeWords_,
                   config_.ifetchReplaceFraction);
    touchFootprint(rng_, memory_->tlb(config_.id), tlb_due, tlbEntries_,
                   config_.tlbReplaceFraction);
}

} // namespace xser::cpu
