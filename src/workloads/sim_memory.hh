/**
 * @file
 * Typed access to simulated memory for workload kernels.
 *
 * Every load and store a kernel performs goes through the bit-true
 * cache hierarchy, so beam-injected flips propagate into computation
 * exactly as on real silicon. SimArray<T> wraps an allocation as an
 * array of 8-byte elements; RunContext carries the executing core (the
 * "thread" of the multicore NPB run) and the periodic-quantum hook that
 * lets the session interleave beam, scrubber, and front-end activity
 * with execution.
 */

#ifndef XSER_WORKLOADS_SIM_MEMORY_HH
#define XSER_WORKLOADS_SIM_MEMORY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "mem/memory_system.hh"
#include "sim/snapshot.hh"

namespace xser::workloads {

/**
 * Execution context of a workload run: the memory system, the current
 * core, and the quantum hook.
 */
class RunContext
{
  public:
    using QuantumHook = std::function<void()>;

    /**
     * @param memory Hierarchy to execute against.
     * @param quantum Invoked every `quantum_accesses` accesses (empty
     *        hook allowed for golden runs).
     * @param quantum_accesses Hook period in memory accesses.
     */
    RunContext(mem::MemorySystem *memory, QuantumHook quantum,
               uint64_t quantum_accesses);

    mem::MemorySystem &memory() { return *memory_; }

    /** The core ("thread") executing the current partition. */
    unsigned core() const { return core_; }
    void setCore(unsigned core) { core_ = core; }

    /**
     * Map a parallel-loop index onto a core, NPB block-partition style.
     */
    unsigned coreForIndex(size_t index, size_t extent) const;

    /** Number of cores participating. */
    unsigned numCores() const { return numCores_; }

    /**
     * Poll the quantum hook; kernels call this in their outer loops.
     * Cheap when not yet due.
     */
    void poll()
    {
        if (memory_->accessCount() - lastAccesses_ >= quantumAccesses_)
            firstQuantum();
    }

  private:
    void firstQuantum();

    mem::MemorySystem *memory_;
    QuantumHook quantum_;
    uint64_t quantumAccesses_;
    uint64_t lastAccesses_ = 0;
    unsigned core_ = 0;
    unsigned numCores_;
};

/**
 * A typed array living in simulated memory. T must be an 8-byte
 * trivially copyable type (double, int64_t, uint64_t).
 */
template <typename T>
class SimArray
{
    static_assert(sizeof(T) == 8, "SimArray elements must be 8 bytes");
    static_assert(std::is_trivially_copyable_v<T>,
                  "SimArray elements must be trivially copyable");

  public:
    SimArray() = default;

    /** Allocate `count` elements tagged for diagnostics. */
    SimArray(mem::MemorySystem &memory, size_t count,
             const std::string &tag)
        : memory_(&memory), base_(memory.allocate(count * 8, tag)),
          count_(count)
    {
    }

    size_t size() const { return count_; }

    /** Load element i on behalf of the context's current core. */
    T
    get(RunContext &ctx, size_t i) const
    {
        return std::bit_cast<T>(
            memory_->readWord(ctx.core(), base_ + 8 * i));
    }

    /** Store element i on behalf of the context's current core. */
    void
    set(RunContext &ctx, size_t i, T value)
    {
        memory_->writeWord(ctx.core(), base_ + 8 * i,
                           std::bit_cast<uint64_t>(value));
    }

    /**
     * Store elements [i, i + count), all in one 64-byte line, on behalf
     * of the context's current core: one store run
     * (MemorySystem::writeWords), identical to count set() calls.
     */
    void
    setRun(RunContext &ctx, size_t i, const T *values, size_t count)
    {
        uint64_t words[mem::lineWords];
        XSER_ASSERT(count <= mem::lineWords, "store run longer than a line");
        for (size_t k = 0; k < count; ++k)
            words[k] = std::bit_cast<uint64_t>(values[k]);
        memory_->writeWords(ctx.core(), base_ + 8 * i, words, count);
    }

    /** Base address (for footprint diagnostics). */
    mem::Addr base() const { return base_; }

    /**
     * Serialize the handle (base address + extent). The element bytes
     * themselves live in the memory hierarchy and travel with its
     * snapshot; only the binding is recorded here.
     */
    void
    snapshot(SnapshotWriter &writer) const
    {
        writer.u64(base_);
        writer.u64(count_);
    }

    /** Restore the handle, rebinding it to `memory`. */
    void
    restore(SnapshotReader &reader, mem::MemorySystem &memory)
    {
        memory_ = &memory;
        base_ = reader.u64();
        count_ = static_cast<size_t>(reader.u64());
    }

  private:
    mem::MemorySystem *memory_ = nullptr;
    mem::Addr base_ = 0;
    size_t count_ = 0;
};

} // namespace xser::workloads

#endif // XSER_WORKLOADS_SIM_MEMORY_HH
