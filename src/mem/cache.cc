/**
 * @file
 * Cache implementation.
 */

#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace xser::mem {

Cache::Cache(const CacheConfig &config, EdacReporter *reporter,
             ResidencyTable *residency, unsigned column)
    : config_(config),
      geometry_(config.sizeBytes, config.lineBytes, config.associativity),
      reporter_(reporter),
      dataArray_(config.name + ".data",
                 geometry_.numLines() * geometry_.wordsPerLine(),
                 config.protection),
      residency_(residency), residencyColumn_(column)
{
    XSER_ASSERT(reporter_ != nullptr, "cache needs an EDAC reporter");
    XSER_ASSERT(geometry_.wordsPerLine() == lineWords,
                msg("cache ", config_.name, " needs 64-byte lines"));
    tagValid_.assign(geometry_.numLines(), 0);
    stamp_.assign(geometry_.numLines(), 0);
    if (residency_ == nullptr) {
        ownResidency_ = std::make_unique<ResidencyTable>(1);
        residency_ = ownResidency_.get();
        residencyColumn_ = 0;
    }
}

unsigned
Cache::victimWay(size_t set) const
{
    const size_t first = set * config_.associativity;
    unsigned victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (unsigned way = 0; way < config_.associativity; ++way) {
        if ((tagValid_[first + way] & 1) == 0)
            return way;
        if (stamp_[first + way] < oldest) {
            oldest = stamp_[first + way];
            victim = way;
        }
    }
    return victim;
}

void
Cache::postEdac(const ReadOutcome &outcome)
{
    if (ecc::reportsCorrected(outcome.status)) {
        reporter_->post(now(), config_.level, EdacKind::Corrected,
                        config_.name);
    } else if (ecc::reportsUncorrected(outcome.status)) {
        reporter_->post(now(), config_.level, EdacKind::Uncorrected,
                        config_.name);
    } else if (outcome.status == ecc::CheckStatus::ParityError &&
               config_.writePolicy == WritePolicy::WriteBack) {
        // Parity on a write-back array (ablation configuration only):
        // detected but uncorrectable -- the dirty data has no second
        // copy. Logged as a UE.
        reporter_->post(now(), config_.level, EdacKind::Uncorrected,
                        config_.name);
    }
    // In write-through arrays parity errors are posted by the recovery
    // path in MemorySystem once the refetch succeeds (logged as
    // corrected upsets there), so nothing to do for them here.
}

bool
Cache::outcomeUncorrectable(const ReadOutcome &outcome) const
{
    if (ecc::reportsUncorrected(outcome.status))
        return true;
    return outcome.status == ecc::CheckStatus::ParityError &&
           config_.writePolicy == WritePolicy::WriteBack;
}

bool
Cache::isDirty(Addr addr) const
{
    const int way = findWay(addr);
    if (way < 0)
        return false;
    return wayDirty(addr, way);
}

bool
Cache::readOut(size_t slot, LineData &out)
{
    const size_t base = slot * lineWords;
    if (dataArray_.readRange(base, lineWords, out.data()))
        return false;
    bool uncorrectable = false;
    for (size_t i = 0; i < lineWords; ++i) {
        ReadOutcome outcome = dataArray_.read(base + i);
        if (outcome.status != ecc::CheckStatus::Clean) {
            postEdac(outcome);
            if (outcomeUncorrectable(outcome))
                uncorrectable = true;
        }
        out[i] = outcome.value;
    }
    return uncorrectable;
}

bool
Cache::readLine(Addr addr, LineData &out, int way)
{
    XSER_ASSERT(way >= 0, msg("readLine miss in ", config_.name));
    const size_t slot = slotOf(addr, way);
    touch(slot, false);
    return readOut(slot, out);
}

EvictedLine
Cache::allocate(Addr addr, const LineData &line, bool dirty)
{
    const size_t set = geometry_.setIndex(addr);
    // A present line always has a nonzero residency count, so the cheap
    // count test screens the double-allocate invariant without a tag
    // search on the (overwhelmingly common) definitely-absent case.
    XSER_ASSERT(!mayContain(addr) || findWay(addr) < 0,
                msg("allocate of already-present line in ", config_.name));

    const size_t slot =
        set * config_.associativity + victimWay(set);

    EvictedLine evicted;
    if (tagValid_[slot] & 1) {
        ++stats_.evictions;
        evicted.valid = true;
        evicted.dirty = (stamp_[slot] & 1) != 0;
        evicted.address = geometry_.lineAddress(tagValid_[slot] >> 1, set);
        if (evicted.dirty) {
            // Checked read-out: a writeback passes through the codec.
            evicted.hadUncorrectable = readOut(slot, evicted.data);
            ++stats_.writebacks;
        }
        residencyRemove(evicted.address);
    }

    residencyAdd(addr);
    tagValid_[slot] = (geometry_.tag(addr) << 1) | 1;
    stamp_[slot] = (++useCounter_ << 1) | (dirty ? 1 : 0);
    dataArray_.writeRange(slot * lineWords, line.data(), lineWords);
    return evicted;
}

void
Cache::invalidate(Addr addr)
{
    const int way = findWay(addr);
    if (way < 0)
        return;
    invalidateWay(addr, way);
}

void
Cache::invalidateWay(Addr addr, int way)
{
    const size_t slot = slotOf(addr, way);
    tagValid_[slot] &= ~Addr{1};
    stamp_[slot] &= ~uint64_t{1};
    residencyRemove(addr);
    ++stats_.invalidations;
}

void
Cache::invalidateAll()
{
    for (Addr &tag : tagValid_)
        tag &= ~Addr{1};
    for (uint64_t &stamp : stamp_)
        stamp &= ~uint64_t{1};
    residency_->clearColumn(residencyColumn_);
}

Cache::ScrubResult
Cache::scrubLine(size_t line_index)
{
    XSER_ASSERT(line_index < tagValid_.size(), "scrub index out of range");
    ScrubResult result;
    if ((tagValid_[line_index] & 1) == 0)
        return result;
    result.scanned = true;
    result.dirty = (stamp_[line_index] & 1) != 0;

    const size_t set = line_index / config_.associativity;
    result.address = geometry_.lineAddress(tagValid_[line_index] >> 1, set);

    const size_t base = line_index * lineWords;
    if (dataArray_.fastPath() &&
        !dataArray_.anyCorruptInRange(base, lineWords)) {
        // A patrol pass over a clean line is pure reads of clean words:
        // no EDAC posting, no trace, no invalidation, and the read-out
        // data is only consumed on a dirty uncorrectable hit -- which a
        // clean line cannot be. Skip the scan entirely.
        return result;
    }
    bool found_error = false;
    for (size_t i = 0; i < lineWords; ++i) {
        ReadOutcome outcome = dataArray_.read(base + i);
        postEdac(outcome);
        if (outcomeUncorrectable(outcome))
            result.uncorrectable = true;
        if (outcome.status != ecc::CheckStatus::Clean ||
            outcome.silentCorruption)
            found_error = true;
        result.data[i] = outcome.value;
    }
    if (found_error && dataArray_.traceSink()) {
        // One Scrub record per non-clean line found by the patrol scan
        // (the word-level detections above carry the details).
        dataArray_.traceSink()->record(
            {trace::EventType::Scrub, dataArray_.now(),
             dataArray_.traceId(), static_cast<uint64_t>(base),
             trace::noBit, result.uncorrectable ? 1u : 0u});
    }
    if (result.uncorrectable) {
        // Poisoned line: drop it so it cannot re-report every pass. The
        // owner writes dirty data (corrupt as it is) downstream.
        tagValid_[line_index] &= ~Addr{1};
        stamp_[line_index] &= ~uint64_t{1};
        residencyRemove(result.address);
        ++stats_.invalidations;
    }
    return result;
}

std::vector<std::pair<Addr, LineData>>
Cache::drainAll()
{
    std::vector<std::pair<Addr, LineData>> dirty_lines;
    for (size_t slot = 0; slot < tagValid_.size(); ++slot) {
        if ((tagValid_[slot] & 1) == 0)
            continue;
        if (stamp_[slot] & 1) {
            const size_t set = slot / config_.associativity;
            LineData data;
            readOut(slot, data);
            dirty_lines.emplace_back(
                geometry_.lineAddress(tagValid_[slot] >> 1, set), data);
            ++stats_.writebacks;
        }
        tagValid_[slot] &= ~Addr{1};
        stamp_[slot] &= ~uint64_t{1};
    }
    residency_->clearColumn(residencyColumn_);
    return dirty_lines;
}

double
Cache::occupancy() const
{
    size_t valid = 0;
    for (const Addr tag : tagValid_)
        valid += tag & 1;
    return static_cast<double>(valid) /
           static_cast<double>(tagValid_.size());
}

std::vector<Addr>
Cache::validLines() const
{
    std::vector<Addr> lines;
    for (size_t slot = 0; slot < tagValid_.size(); ++slot) {
        if (tagValid_[slot] & 1)
            lines.push_back(geometry_.lineAddress(
                tagValid_[slot] >> 1, slot / config_.associativity));
    }
    return lines;
}

void
Cache::snapshot(SnapshotWriter &writer) const
{
    writer.u64(tagValid_.size());
    for (size_t slot = 0; slot < tagValid_.size(); ++slot) {
        writer.u64(tagValid_[slot] >> 1);
        writer.u8(static_cast<uint8_t>((tagValid_[slot] & 1) |
                                       ((stamp_[slot] & 1) << 1)));
        writer.u64(stamp_[slot] >> 1);
    }
    writer.u64(useCounter_);
    writer.u64(stats_.hits);
    writer.u64(stats_.misses);
    writer.u64(stats_.evictions);
    writer.u64(stats_.writebacks);
    writer.u64(stats_.invalidations);
    dataArray_.snapshot(writer);
}

void
Cache::restore(SnapshotReader &reader)
{
    const uint64_t lines = reader.u64();
    XSER_ASSERT(lines == tagValid_.size(),
                msg("snapshot shape mismatch restoring ", config_.name));
    residency_->clearColumn(residencyColumn_);
    for (size_t slot = 0; slot < tagValid_.size(); ++slot) {
        const Addr tag = reader.u64();
        const uint8_t flags = reader.u8();
        const bool valid = (flags & 1u) != 0;
        tagValid_[slot] = (tag << 1) | (valid ? 1 : 0);
        stamp_[slot] = (reader.u64() << 1) | ((flags >> 1) & 1u);
        // The residency counts are a pure function of the valid lines;
        // rebuilding them here keeps them exact without serializing.
        if (valid)
            residencyAdd(geometry_.lineAddress(
                tag, slot / config_.associativity));
    }
    useCounter_ = reader.u64();
    stats_.hits = reader.u64();
    stats_.misses = reader.u64();
    stats_.evictions = reader.u64();
    stats_.writebacks = reader.u64();
    stats_.invalidations = reader.u64();
    dataArray_.restore(reader);
}

} // namespace xser::mem
