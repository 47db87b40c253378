/**
 * @file
 * Workload shared helpers: signature accumulator and suite factory.
 */

#include "workloads/workload.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/kernels.hh"

namespace xser::workloads {

void
SignatureBuilder::add(uint64_t word)
{
    hash_ ^= word;
    hash_ *= 0x100000001b3ULL;
    // Mix in the position so reorderings cannot cancel.
    hash_ ^= ++count_;
    hash_ *= 0x100000001b3ULL;
}

void
SignatureBuilder::add(double value)
{
    add(std::bit_cast<uint64_t>(value));
}

std::vector<uint64_t>
SignatureBuilder::finish() const
{
    return {hash_, count_};
}

uint64_t
Workload::datasetValue(size_t index) const
{
    if (!nameHashValid_) {
        nameHash_ = hashString(traits().name);
        nameHashValid_ = true;
    }
    SplitMix64 mixer(nameHash_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    return mixer.next();
}

void
Workload::setUp(RunContext &ctx)
{
    const auto &info = traits();
    if (info.datasetWords > 0) {
        const size_t words = info.datasetWords;
        dataset_ = SimArray<uint64_t>(ctx.memory(), words,
                                      info.name + ".dataset");
        // Line by line (the array is line-aligned), each line as one
        // store run when a single core owns all of it. The quantum poll
        // every 2048 words follows a line's word 0 and may beam or scrub
        // the line, so there the run restarts after it.
        uint64_t line[mem::lineWords];
        for (size_t i = 0; i < words; i += mem::lineWords) {
            const size_t count = std::min(mem::lineWords, words - i);
            for (size_t k = 0; k < count; ++k)
                line[k] = datasetValue(i + k);
            const unsigned core = ctx.coreForIndex(i, words);
            ctx.setCore(core);
            size_t done = 0;
            if ((i & 2047) == 0) {
                dataset_.set(ctx, i, line[0]);
                ctx.poll();
                done = 1;
            }
            if (ctx.coreForIndex(i + count - 1, words) == core) {
                if (done < count)
                    dataset_.setRun(ctx, i + done, line + done,
                                    count - done);
                continue;
            }
            for (size_t k = done; k < count; ++k) {
                ctx.setCore(ctx.coreForIndex(i + k, words));
                dataset_.set(ctx, i + k, line[k]);
            }
        }
    }
    windowCursor_ = 0;
    onSetUp(ctx);
}

bool
Workload::streamDataset(RunContext &ctx)
{
    const auto &info = traits();
    if (info.datasetWords == 0 || info.windowLines == 0)
        return true;
    // One word per 64-byte line: the stride that touches every cache
    // line exactly once, like a class-A input sweep.
    constexpr size_t wordsPerLine = 8;
    const size_t total_lines = info.datasetWords / wordsPerLine;
    bool clean = true;
    for (size_t step = 0; step < info.windowLines; ++step) {
        const size_t line = (windowCursor_ + step) % total_lines;
        const size_t index = line * wordsPerLine;
        ctx.setCore(ctx.coreForIndex(step, info.windowLines));
        if (dataset_.get(ctx, index) != datasetValue(index))
            clean = false;
        if ((step & 511) == 0)
            ctx.poll();
    }
    windowCursor_ = (windowCursor_ + info.windowLines) % total_lines;
    return clean;
}

void
Workload::snapshot(SnapshotWriter &writer) const
{
    dataset_.snapshot(writer);
    writer.u64(windowCursor_);
    onSnapshot(writer);
}

void
Workload::restore(SnapshotReader &reader, mem::MemorySystem &memory)
{
    dataset_.restore(reader, memory);
    windowCursor_ = static_cast<size_t>(reader.u64());
    // nameHash_ is a derived cache; leave it to repopulate lazily.
    onRestore(reader, memory);
}

WorkloadOutput
Workload::run(RunContext &ctx)
{
    const bool inputs_clean = streamDataset(ctx);
    WorkloadOutput output = onRun(ctx);
    if (!inputs_clean && output.termination == Termination::Completed) {
        // Poison the signature: a real application consuming the
        // corrupted input would emit a corrupted result.
        output.signature.push_back(0xbadbadbadbadbadbULL);
    }
    return output;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {"CG", "LU", "FT",
                                                   "EP", "MG", "IS"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "CG")
        return std::make_unique<CgWorkload>();
    if (name == "EP")
        return std::make_unique<EpWorkload>();
    if (name == "FT")
        return std::make_unique<FtWorkload>();
    if (name == "IS")
        return std::make_unique<IsWorkload>();
    if (name == "LU")
        return std::make_unique<LuWorkload>();
    if (name == "MG")
        return std::make_unique<MgWorkload>();
    fatal(msg("unknown workload '", name, "'"));
}

std::vector<std::unique_ptr<Workload>>
makeSuite()
{
    std::vector<std::unique_ptr<Workload>> suite;
    for (const auto &name : suiteNames())
        suite.push_back(makeWorkload(name));
    return suite;
}

} // namespace xser::workloads
