/**
 * @file
 * MemorySystem implementation.
 */

#include "mem/memory_system.hh"

#include <cstring>

#include "sim/logging.hh"
#include "telemetry/metrics.hh"

namespace xser::mem {

namespace {

constexpr Addr pageBytes = 4096;
constexpr size_t pageWords = pageBytes / 8;

/** Page-table bound: 64 GiB of simulated physical memory. */
constexpr size_t maxDramPages = size_t{1} << 24;

} // namespace

MemorySystem::MemorySystem(const MemorySystemConfig &config,
                           EdacReporter *reporter)
    : config_(config), reporter_(reporter)
{
    XSER_ASSERT(reporter_ != nullptr, "memory system needs a reporter");
    if (config_.numCores == 0 || config_.numCores % 2 != 0)
        fatal(msg("core count must be a positive even number, got ",
                  config_.numCores));

    const unsigned pairs = config_.numCores / 2;
    residency_ = std::make_unique<ResidencyTable>(config_.numCores + pairs);
    for (unsigned core = 0; core < config_.numCores; ++core) {
        CacheConfig l1;
        l1.name = msg("l1d.", core);
        l1.sizeBytes = config_.l1dBytes;
        l1.lineBytes = config_.lineBytes;
        l1.associativity = config_.l1dAssociativity;
        l1.protection = config_.l1Protection;
        l1.writePolicy = WritePolicy::WriteThrough;
        l1.level = CacheLevel::L1;
        l1d_.push_back(
            std::make_unique<Cache>(l1, reporter_, residency_.get(), core));

        l1i_.push_back(std::make_unique<RefetchableArray>(
            msg("l1i.", core), config_.l1iBytes / 8, CacheLevel::L1,
            reporter_, config_.contentSeed ^ (0x1111ULL * (core + 1))));
        tlb_.push_back(std::make_unique<RefetchableArray>(
            msg("tlb.", core), config_.tlbWordsPerCore, CacheLevel::Tlb,
            reporter_, config_.contentSeed ^ (0x2222ULL * (core + 1))));
    }

    for (unsigned pair = 0; pair < pairs; ++pair) {
        CacheConfig l2;
        l2.name = msg("l2.", pair);
        l2.sizeBytes = config_.l2Bytes;
        l2.lineBytes = config_.lineBytes;
        l2.associativity = config_.l2Associativity;
        l2.protection = config_.l2Protection;
        l2.writePolicy = WritePolicy::WriteBack;
        l2.level = CacheLevel::L2;
        l2_.push_back(std::make_unique<Cache>(
            l2, reporter_, residency_.get(), config_.numCores + pair));
    }

    CacheConfig l3;
    l3.name = "l3";
    l3.sizeBytes = config_.l3Bytes;
    l3.lineBytes = config_.lineBytes;
    l3.associativity = config_.l3Associativity;
    l3.protection = config_.l3Protection;
    l3.writePolicy = WritePolicy::WriteBack;
    l3.level = CacheLevel::L3;
    l3_ = std::make_unique<Cache>(l3, reporter_);

    for (BeamTarget &target : beamTargets())
        target.array->setFastPath(config_.fastPath);
}

void
MemorySystem::setTimeSource(const Tick *now)
{
    now_ = now;
    for (auto &cache : l1d_)
        cache->setTimeSource(now);
    for (auto &cache : l2_)
        cache->setTimeSource(now);
    l3_->setTimeSource(now);
    for (auto &array : l1i_)
        array->setTimeSource(now);
    for (auto &array : tlb_)
        array->setTimeSource(now);
}

void
MemorySystem::setTraceSink(trace::TraceSink *sink)
{
    traceSink_ = sink;
    uint32_t id = 0;
    for (BeamTarget &target : beamTargets()) {
        target.array->setTrace(sink, sink ? id : trace::noArray);
        if (sink)
            sink->registerArray(id, static_cast<uint8_t>(target.level));
        ++id;
    }
}

std::vector<trace::TraceArrayInfo>
MemorySystem::traceArrayTable() const
{
    std::vector<trace::TraceArrayInfo> table;
    auto add_array = [&table](const SramArray &array, CacheLevel level) {
        table.push_back({array.name(), static_cast<uint8_t>(level), 0, 0,
                         static_cast<uint64_t>(array.words())});
    };
    auto add_cache = [&table](const Cache &cache) {
        table.push_back(
            {cache.dataArray().name(),
             static_cast<uint8_t>(cache.config().level),
             static_cast<uint32_t>(cache.geometry().wordsPerLine()),
             cache.config().associativity,
             static_cast<uint64_t>(cache.dataArray().words())});
    };
    for (const auto &array : l1i_)
        add_array(array->array(), CacheLevel::L1);
    for (const auto &cache : l1d_)
        add_cache(*cache);
    for (const auto &array : tlb_)
        add_array(array->array(), CacheLevel::Tlb);
    for (const auto &cache : l2_)
        add_cache(*cache);
    add_cache(*l3_);
    return table;
}

Cache &
MemorySystem::l1d(unsigned core)
{
    XSER_ASSERT(core < l1d_.size(), "core index out of range");
    return *l1d_[core];
}

Cache &
MemorySystem::l2(unsigned pair)
{
    XSER_ASSERT(pair < l2_.size(), "pair index out of range");
    return *l2_[pair];
}

RefetchableArray &
MemorySystem::l1i(unsigned core)
{
    XSER_ASSERT(core < l1i_.size(), "core index out of range");
    return *l1i_[core];
}

RefetchableArray &
MemorySystem::tlb(unsigned core)
{
    XSER_ASSERT(core < tlb_.size(), "core index out of range");
    return *tlb_[core];
}

Addr
MemorySystem::allocate(size_t bytes, const std::string &tag)
{
    if (bytes == 0)
        fatal(msg("zero-byte allocation for '", tag, "'"));
    const Addr base = heapNext_;
    heapNext_ = (heapNext_ + bytes + config_.lineBytes - 1) &
                ~static_cast<Addr>(config_.lineBytes - 1);
    return base;
}

void
MemorySystem::resetHeap()
{
    dramPages_.clear();
    heapNext_ = 0x10000;
    for (auto &cache : l1d_)
        cache->invalidateAll();
    for (auto &cache : l2_)
        cache->invalidateAll();
    l3_->invalidateAll();
}

uint64_t *
MemorySystem::dramLine(Addr line_addr)
{
    // Lines never straddle pages (both are powers of two with
    // lineBytes <= pageBytes), so one page serves the whole line.
    const Addr page = line_addr / pageBytes;
    if (page >= dramPages_.size()) {
        if (page >= maxDramPages)
            fatal(msg("DRAM address ", line_addr,
                      " beyond the simulated 64 GiB"));
        dramPages_.resize(static_cast<size_t>(page) + 1);
    }
    std::unique_ptr<DramPage> &slot = dramPages_[page];
    if (!slot)
        slot = std::make_unique<DramPage>();
    return slot->data() + ((line_addr & (pageBytes - 1)) >> 3);
}

void
MemorySystem::dramReadLine(Addr line_addr, LineData &out)
{
    std::memcpy(out.data(), dramLine(line_addr), sizeof(LineData));
}

void
MemorySystem::dramWriteLine(Addr line_addr, const LineData &line)
{
    std::memcpy(dramLine(line_addr), line.data(), sizeof(LineData));
}

void
MemorySystem::snoopOtherL2s(unsigned writing_pair, Addr line_addr)
{
    // Counted before the probes change any residency count.
    countSnoops(writing_pair, line_addr, 1);
    // One row holds every L2's residency count for this line's bucket.
    const uint32_t *counts =
        residency_->row(ResidencyTable::bucket(line_addr)) + l1d_.size();
    for (unsigned pair = 0; pair < l2_.size(); ++pair) {
        // Residency early-out: a zero count proves the line absent, so
        // the snoop is a no-op without a tag search.
        if (pair == writing_pair || (config_.fastPath && counts[pair] == 0))
            continue;
        Cache &other = *l2_[pair];
        const int way = other.findWay(line_addr);
        if (way < 0)
            continue;
        if (other.wayDirty(line_addr, way)) {
            LineData line;
            other.readLine(line_addr, line, way);
            writeLineToL3(line_addr, line);
        }
        other.invalidateWay(line_addr, way);
    }
}

void
MemorySystem::countSnoops(unsigned writing_pair, Addr line_addr,
                          uint64_t snoops)
{
    uint64_t filtered = 0;
    if (config_.fastPath) {
        const uint32_t *counts =
            residency_->row(ResidencyTable::bucket(line_addr)) +
            l1d_.size();
        for (unsigned pair = 0; pair < l2_.size(); ++pair)
            filtered += pair != writing_pair && counts[pair] == 0 ? 1 : 0;
    }
    telemetry::count(telemetry::Counter::SnoopProbes,
                     (l2_.size() - 1) * snoops);
    telemetry::count(telemetry::Counter::SnoopsFiltered, filtered * snoops);
}

void
MemorySystem::installL3(Addr line_addr, const LineData &line, bool dirty)
{
    EvictedLine victim = l3_->allocate(line_addr, line, dirty);
    if (victim.valid && victim.dirty)
        dramWriteLine(victim.address, victim.data);
}

void
MemorySystem::writeLineToL3(Addr line_addr, const LineData &line)
{
    const int way = l3_->findWay(line_addr);
    if (way >= 0) {
        l3_->writeRun(line_addr, line.data(), lineWords, way);
        return;
    }
    installL3(line_addr, line, true);
}

void
MemorySystem::readLineFromL3(Addr line_addr, LineData &out)
{
    cycles_ += config_.l3HitCycles;
    const int way = l3_->findWay(line_addr);
    if (way < 0) {
        l3_->recordMiss();
        cycles_ += config_.dramCycles;
        dramReadLine(line_addr, out);
        installL3(line_addr, out, false);
        return;
    }
    l3_->recordHit();
    const bool uncorrectable = l3_->readLine(line_addr, out, way);
    if (uncorrectable) {
        if (!l3_->wayDirty(line_addr, way)) {
            // Clean poisoned line: DRAM still has the truth.
            l3_->invalidateWay(line_addr, way);
            cycles_ += config_.dramCycles;
            dramReadLine(line_addr, out);
            installL3(line_addr, out, false);
        } else {
            // Dirty poisoned line: nothing better exists; the corrupt
            // data propagates (possible SDC downstream).
            ++delivery_.dirtyUeDeliveries;
            if (traceSink_) {
                traceSink_->record({trace::EventType::Propagate,
                                    now_ ? *now_ : 0,
                                    l3_->dataArray().traceId(),
                                    trace::noWord, trace::noBit, 1});
            }
        }
    }
}

void
MemorySystem::installL2(unsigned pair, Addr line_addr, const LineData &line,
                        bool dirty)
{
    EvictedLine victim = l2_[pair]->allocate(line_addr, line, dirty);
    if (victim.valid && victim.dirty)
        writeLineToL3(victim.address, victim.data);
}

void
MemorySystem::readLineFromL2(unsigned core, Addr line_addr, LineData &out)
{
    const unsigned pair = core / 2;
    Cache &cache = *l2_[pair];
    cycles_ += config_.l2HitCycles;
    const int way = cache.findWay(line_addr);
    if (way < 0) {
        cache.recordMiss();
        // A sibling pair may hold a newer dirty copy; push it to L3
        // before reading the L3 level.
        snoopOtherL2s(pair, line_addr);
        readLineFromL3(line_addr, out);
        installL2(pair, line_addr, out, false);
        return;
    }
    cache.recordHit();
    const bool uncorrectable = cache.readLine(line_addr, out, way);
    if (uncorrectable) {
        if (!cache.wayDirty(line_addr, way)) {
            cache.invalidateWay(line_addr, way);
            readLineFromL3(line_addr, out);
            installL2(pair, line_addr, out, false);
        } else {
            ++delivery_.dirtyUeDeliveries;
            if (traceSink_) {
                traceSink_->record({trace::EventType::Propagate,
                                    now_ ? *now_ : 0,
                                    cache.dataArray().traceId(),
                                    trace::noWord, trace::noBit, 1});
            }
        }
    }
}

uint64_t
MemorySystem::readWord(unsigned core, Addr addr)
{
    XSER_ASSERT((addr & 7) == 0, "word access must be 8-byte aligned");
    ++accesses_;
    cycles_ += config_.l1HitCycles;

    Cache &l1 = *l1d_[core];
    const Addr line_addr = l1.geometry().lineBase(addr);
    const size_t offset = l1.geometry().wordOffset(addr);

    const int way = l1.findWay(addr);
    if (way >= 0) {
        l1.recordHit();
        ReadOutcome outcome = l1.readWord(addr, way);
        if (outcome.status != ecc::CheckStatus::ParityError)
            return outcome.value;
        // Parity error: invalidate + refetch; write-through means the
        // level below is authoritative, so this is always recoverable.
        l1.invalidateWay(addr, way);
        reporter_->post(now_ ? *now_ : 0, CacheLevel::L1,
                        EdacKind::Corrected, l1.name());
        ++delivery_.parityRefetches;
    } else {
        l1.recordMiss();
    }

    readLineFromL2(core, line_addr, lineScratch_);
    l1.allocate(addr, lineScratch_, false);
    return lineScratch_[offset];
}

void
MemorySystem::writeWord(unsigned core, Addr addr, uint64_t value)
{
    XSER_ASSERT((addr & 7) == 0, "word access must be 8-byte aligned");
    ++accesses_;
    cycles_ += config_.l1HitCycles;

    Cache &l1 = *l1d_[core];
    const Addr line_addr = l1.geometry().lineBase(addr);

    const int l1_way = l1.findWay(addr);
    if (l1_way >= 0)
        l1.writeWord(addr, value, l1_way);

    // Write-invalidate coherence over the other cores' L1Ds. The
    // residency row turns the common no-sharer case into one load per
    // core instead of a tag search.
    const uint32_t *counts =
        residency_->row(ResidencyTable::bucket(line_addr));
    for (unsigned other = 0; other < l1d_.size(); ++other) {
        if (other == core)
            continue;
        if (config_.fastPath && counts[other] == 0)
            continue;
        Cache &other_l1 = *l1d_[other];
        const int other_way = other_l1.findWay(addr);
        if (other_way >= 0)
            other_l1.invalidateWay(addr, other_way);
    }

    // Write-through into the (write-back, write-allocate) L2.
    const unsigned pair = core / 2;
    Cache &cache = *l2_[pair];
    int l2_way = cache.findWay(addr);
    if (l2_way >= 0 && config_.fastPath) {
        // L2s are exclusive, so no other L2 holds a line this one
        // owns: every snoop would come back empty, and is only counted.
        countSnoops(pair, line_addr, 1);
        cache.recordHit();
    } else {
        snoopOtherL2s(pair, line_addr);
        if (l2_way < 0) {
            cache.recordMiss();
            readLineFromL3(line_addr, lineScratch_);
            installL2(pair, line_addr, lineScratch_, false);
            l2_way = cache.findWay(addr);
        } else {
            cache.recordHit();
        }
    }
    cache.writeWord(addr, value, l2_way);
}

void
MemorySystem::writeWords(unsigned core, Addr addr, const uint64_t *values,
                         size_t count)
{
    Cache &l1 = *l1d_[core];
    XSER_ASSERT(count > 0 && l1.geometry().wordOffset(addr) + count <=
                                 lineWords,
                "store run must lie within one line");
    if (!config_.fastPath) {
        for (size_t i = 0; i < count; ++i)
            writeWord(core, addr + 8 * i, values[i]);
        return;
    }
    writeWord(core, addr, values[0]);
    if (count == 1)
        return;
    // The first word invalidated every other L1D copy and left the line
    // owned by this core's L2, and nothing runs between the words: the
    // rest are owned-line hits whose snoops all come back empty. They
    // go in as one run, with the per-word accounting of writeWord().
    const size_t rest = count - 1;
    const Addr next = addr + 8;
    accesses_ += rest;
    cycles_ += rest * config_.l1HitCycles;
    const int l1_way = l1.findWay(next);
    if (l1_way >= 0)
        l1.writeRun(next, values + 1, rest, l1_way);
    const unsigned pair = core / 2;
    countSnoops(pair, l1.geometry().lineBase(addr), rest);
    Cache &cache = *l2_[pair];
    cache.recordHit(rest);
    cache.writeRun(next, values + 1, rest, cache.findWay(next));
}

void
MemorySystem::scrub(size_t l2_lines, size_t l3_lines)
{
    // Patrolling a fully clean array is observably a no-op (clean-line
    // scrubs touch nothing, see Cache::scrubLine), so when every array
    // of a level is clean the round-robin cursor can jump arithmetically
    // instead of walking line by line.
    const size_t l2_total = l2_.empty() ? 0
        : l2_[0]->geometry().numLines();
    bool l2_all_clean = config_.fastPath;
    for (auto &cache : l2_)
        l2_all_clean = l2_all_clean && cache->arrayClean();
    if (l2_all_clean && l2_total > 0) {
        l2ScrubCursor_ = (l2ScrubCursor_ + l2_lines) % l2_total;
    } else {
        for (size_t step = 0; step < l2_lines && l2_total > 0; ++step) {
            const size_t index = l2ScrubCursor_;
            l2ScrubCursor_ = (l2ScrubCursor_ + 1) % l2_total;
            for (auto &cache : l2_) {
                Cache::ScrubResult result = cache->scrubLine(index);
                if (result.uncorrectable && result.dirty)
                    writeLineToL3(result.address, result.data);
            }
        }
    }
    const size_t l3_total = l3_->geometry().numLines();
    if (config_.fastPath && l3_->arrayClean() && l3_total > 0) {
        l3ScrubCursor_ = (l3ScrubCursor_ + l3_lines) % l3_total;
    } else {
        for (size_t step = 0; step < l3_lines && l3_total > 0; ++step) {
            const size_t index = l3ScrubCursor_;
            l3ScrubCursor_ = (l3ScrubCursor_ + 1) % l3_total;
            Cache::ScrubResult result = l3_->scrubLine(index);
            if (result.uncorrectable && result.dirty)
                dramWriteLine(result.address, result.data);
        }
    }
}

void
MemorySystem::flushAll()
{
    for (auto &cache : l1d_)
        cache->invalidateAll();  // write-through: never dirty
    for (auto &cache : l2_) {
        for (auto &[addr, line] : cache->drainAll())
            writeLineToL3(addr, line);
    }
    for (auto &[addr, line] : l3_->drainAll())
        dramWriteLine(addr, line);
}

std::vector<BeamTarget>
MemorySystem::beamTargets()
{
    std::vector<BeamTarget> targets;
    for (auto &array : l1i_)
        targets.push_back({&array->array(), CacheLevel::L1, true});
    for (auto &cache : l1d_)
        targets.push_back({&cache->dataArray(), CacheLevel::L1, true});
    for (auto &array : tlb_)
        targets.push_back({&array->array(), CacheLevel::Tlb, true});
    for (auto &cache : l2_)
        targets.push_back({&cache->dataArray(), CacheLevel::L2, true});
    targets.push_back({&l3_->dataArray(), CacheLevel::L3, false});
    return targets;
}

void
MemorySystem::snapshot(SnapshotWriter &writer) const
{
    writer.u64(config_.numCores);
    writer.u64(heapNext_);
    writer.u64(cycles_);
    writer.u64(accesses_);
    writer.u64(delivery_.parityRefetches);
    writer.u64(delivery_.dirtyUeDeliveries);
    writer.u64(l2ScrubCursor_);
    writer.u64(l3ScrubCursor_);

    for (const auto &cache : l1d_)
        cache->snapshot(writer);
    for (const auto &cache : l2_)
        cache->snapshot(writer);
    l3_->snapshot(writer);
    for (const auto &array : l1i_)
        array->snapshot(writer);
    for (const auto &array : tlb_)
        array->snapshot(writer);

    // Touched DRAM pages, ascending by address.
    uint64_t pages = 0;
    for (const auto &page : dramPages_)
        pages += page ? 1 : 0;
    writer.u64(pages);
    for (size_t index = 0; index < dramPages_.size(); ++index) {
        if (!dramPages_[index])
            continue;
        writer.u64(index * pageBytes);
        writer.u64Words(dramPages_[index]->data(), pageWords);
    }
}

void
MemorySystem::restore(SnapshotReader &reader)
{
    const uint64_t cores = reader.u64();
    XSER_ASSERT(cores == config_.numCores,
                "snapshot core count mismatch restoring memory system");
    heapNext_ = reader.u64();
    cycles_ = reader.u64();
    accesses_ = reader.u64();
    delivery_.parityRefetches = reader.u64();
    delivery_.dirtyUeDeliveries = reader.u64();
    l2ScrubCursor_ = static_cast<size_t>(reader.u64());
    l3ScrubCursor_ = static_cast<size_t>(reader.u64());

    for (auto &cache : l1d_)
        cache->restore(reader);
    for (auto &cache : l2_)
        cache->restore(reader);
    // The owned-line snoop shortcuts rely on exclusive L2s.
    for (size_t pair = 0; pair < l2_.size(); ++pair) {
        for (const Addr line : l2_[pair]->validLines()) {
            for (size_t other = pair + 1; other < l2_.size(); ++other)
                XSER_ASSERT(!l2_[other]->contains(line),
                            "snapshot line valid in two L2s");
        }
    }
    l3_->restore(reader);
    for (auto &array : l1i_)
        array->restore(reader);
    for (auto &array : tlb_)
        array->restore(reader);

    dramPages_.clear();
    const uint64_t pages = reader.u64();
    for (uint64_t i = 0; i < pages; ++i) {
        const Addr base = reader.u64();
        XSER_ASSERT(base % pageBytes == 0 &&
                        base / pageBytes < maxDramPages,
                    "snapshot DRAM page base out of range");
        const auto page = static_cast<size_t>(base / pageBytes);
        if (page >= dramPages_.size())
            dramPages_.resize(page + 1);
        XSER_ASSERT(!dramPages_[page], "snapshot DRAM page repeated");
        dramPages_[page] = std::make_unique_for_overwrite<DramPage>();
        reader.u64Words(dramPages_[page]->data(), pageWords);
    }
}

size_t
MemorySystem::snapshotBytesBound() const
{
    // Per word: data, check and stale bytes, twice that when the dense
    // corruption vectors ride along; per line slot: tag, flags and LRU
    // stamp; per touched DRAM page: base, length and words; plus slack
    // for the fixed-size fields.
    auto array_bytes = [](const SramArray &array) {
        return array.words() * (array.corruptWords() > 0 ? 20 : 10) + 256;
    };
    size_t bytes = 4096;
    auto add_cache = [&](const Cache &cache) {
        bytes += cache.geometry().numLines() * 17 +
                 array_bytes(cache.dataArray());
    };
    for (const auto &cache : l1d_)
        add_cache(*cache);
    for (const auto &cache : l2_)
        add_cache(*cache);
    add_cache(*l3_);
    for (const auto &array : l1i_)
        bytes += array_bytes(array->array());
    for (const auto &array : tlb_)
        bytes += array_bytes(array->array());
    for (const auto &page : dramPages_)
        bytes += page ? 16 + pageBytes : 0;
    return bytes;
}

uint64_t
MemorySystem::totalSramBits() const
{
    uint64_t bits = 0;
    for (const auto &array : l1i_)
        bits += array->array().totalBits();
    for (const auto &cache : l1d_)
        bits += cache->dataArray().totalBits();
    for (const auto &array : tlb_)
        bits += array->array().totalBits();
    for (const auto &cache : l2_)
        bits += cache->dataArray().totalBits();
    bits += l3_->dataArray().totalBits();
    return bits;
}

} // namespace xser::mem
