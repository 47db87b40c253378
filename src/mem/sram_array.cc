/**
 * @file
 * SramArray implementation.
 */

#include "mem/sram_array.hh"

#include <algorithm>
#include <bit>

#include "ecc/parity.hh"
#include "sim/logging.hh"

namespace xser::mem {

const char *
protectionName(Protection protection)
{
    switch (protection) {
      case Protection::None: return "none";
      case Protection::Parity: return "parity";
      case Protection::Secded: return "secded";
    }
    return "unknown";
}

namespace {

/** Check-bit count per word for a protection scheme. */
unsigned
checkBitsFor(Protection protection)
{
    switch (protection) {
      case Protection::None: return 0;
      case Protection::Parity: return 1;
      case Protection::Secded: return ecc::SecdedCodec::checkBits;
    }
    return 0;
}

} // namespace

SramArray::SramArray(std::string name, size_t words, Protection protection)
    : name_(std::move(name)), protection_(protection),
      bitsPerWord_(64 + checkBitsFor(protection))
{
    if (words == 0)
        fatal(msg("SRAM array '", name_, "' must have at least one word"));
    data_.resize(words);
    check_.resize(words);
    state_.resize(words);
    reset();
}

void
SramArray::materializeCheck(size_t index)
{
    if (state_[index] != wordStale)
        return;
    state_[index] = wordClean;
    if (!staleTruthCheck_.empty())
        staleTruthCheck_.erase(index);
    // Stale implies no flip or repair since the last write (both
    // materialize first), so the stored word still equals the truth and
    // one encode serves for both the stored and the true check bits.
    uint8_t bits = 0;
    switch (protection_) {
      case Protection::None:
        break;
      case Protection::Parity:
        bits = ecc::ParityCodec::encode(data_[index]);
        break;
      case Protection::Secded:
        bits = ecc::SecdedCodec::encode(data_[index]);
        break;
    }
    check_[index] = bits;
}

void
SramArray::settle(size_t index, const Truth &truth)
{
    const bool now_corrupt =
        data_[index] != truth.data || check_[index] != truth.check;
    if (now_corrupt == (state_[index] == wordCorrupt))
        return;
    if (now_corrupt) {
        truth_.emplace(index, truth);
        state_[index] = wordCorrupt;
    } else {
        truth_.erase(index);
        state_[index] = wordClean;
    }
}

void
SramArray::dropTruth(size_t index)
{
    ++counters_.overwrittenFlips;
    const auto entry = truth_.find(index);
    if (entry->second.check != check_[index])
        staleTruthCheck_[index] = entry->second.check;
    truth_.erase(entry);
    state_[index] = wordClean;
}

void
SramArray::emit(trace::EventType type, size_t index, uint32_t bit,
                uint64_t aux)
{
    traceSink_->record({type, now(), traceId_,
                        static_cast<uint64_t>(index), bit, aux});
}

ReadOutcome
SramArray::readChecked(size_t index)
{
    XSER_ASSERT(index < data_.size(), "SRAM read out of range");
    switch (protection_) {
      case Protection::None: {
        ReadOutcome outcome;
        outcome.value = data_[index];
        outcome.status = ecc::CheckStatus::Clean;
        outcome.silentCorruption = data_[index] != truthOf(index).data;
        if (outcome.silentCorruption) {
            ++counters_.silentEscapes;
            if (traceSink_)
                emit(trace::EventType::Propagate, index, trace::noBit, 0);
        }
        return outcome;
      }
      case Protection::Parity:
        return readParity(index);
      case Protection::Secded:
        return readSecded(index);
    }
    panic("unreachable protection scheme");
}

ReadOutcome
SramArray::readParity(size_t index)
{
    materializeCheck(index);
    ReadOutcome outcome;
    outcome.value = data_[index];
    outcome.status = ecc::ParityCodec::check(data_[index], check_[index]);
    outcome.silentCorruption = false;
    if (outcome.status == ecc::CheckStatus::ParityError) {
        ++counters_.parityErrors;
        if (traceSink_)
            emit(trace::EventType::ParityDetect, index, trace::noBit, 0);
        return outcome;
    }
    // Parity passed; an even number of flips (data+check combined) slips
    // through undetected.
    if (data_[index] != truthOf(index).data) {
        outcome.silentCorruption = true;
        ++counters_.silentEscapes;
        if (traceSink_)
            emit(trace::EventType::Propagate, index, trace::noBit, 0);
    }
    return outcome;
}

ReadOutcome
SramArray::readSecded(size_t index)
{
    materializeCheck(index);
    const Truth truth = truthOf(index);
    ReadOutcome outcome;
    const auto result = ecc::SecdedCodec::decode(data_[index],
                                                 check_[index]);
    outcome.value = result.data;
    outcome.status = result.status;
    outcome.silentCorruption = false;

    switch (result.status) {
      case ecc::CheckStatus::Clean:
        if (result.data != truth.data) {
            // >= 4 flips aliased to a valid codeword: fully silent.
            outcome.silentCorruption = true;
            ++counters_.silentEscapes;
            if (traceSink_)
                emit(trace::EventType::Propagate, index, trace::noBit, 0);
        }
        break;
      case ecc::CheckStatus::CorrectedSingle: {
        // The repaired stored bit is whichever position the decoder
        // changed; observed before the correction is written back.
        uint32_t fixed_bit = trace::noBit;
        if (traceSink_) {
            const uint64_t data_diff = data_[index] ^ result.data;
            const unsigned check_diff =
                static_cast<unsigned>(check_[index] ^ result.check);
            if (data_diff != 0) {
                fixed_bit = static_cast<uint32_t>(
                    std::countr_zero(data_diff));
            } else if (check_diff != 0) {
                fixed_bit = 64u + static_cast<uint32_t>(
                                      std::countr_zero(check_diff));
            }
        }
        // Scrub the correction back into the array, as hardware does.
        data_[index] = result.data;
        check_[index] = result.check;
        settle(index, truth);  // exact repair cleans; miscorrect stays
        ++counters_.corrected;
        if (result.data != truth.data) {
            // The decoder repaired the wrong bit: a >= 3-flip alias. The
            // hardware report stays "corrected"; ground truth says the
            // word is now corrupt (Section 6.2 case 1).
            outcome.status = ecc::CheckStatus::Miscorrected;
            outcome.silentCorruption = true;
            ++counters_.miscorrections;
            if (traceSink_)
                emit(trace::EventType::EccMiscorrect, index, fixed_bit, 0);
        } else if (traceSink_) {
            emit(trace::EventType::EccCorrect, index, fixed_bit, 0);
        }
        break;
      }
      case ecc::CheckStatus::DetectedDouble:
        ++counters_.uncorrected;
        if (traceSink_)
            emit(trace::EventType::UeDetect, index, trace::noBit, 0);
        break;
      default:
        panic("unexpected SECDED decode status");
    }
    return outcome;
}

uint64_t
SramArray::peek(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM peek out of range");
    return data_[index];
}

uint64_t
SramArray::truth(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM truth out of range");
    return truthOf(index).data;
}

bool
SramArray::isCorrupted(size_t index) const
{
    XSER_ASSERT(index < data_.size(), "SRAM index out of range");
    return state_[index] == wordCorrupt;
}

void
SramArray::flipBit(size_t index, unsigned stored_bit)
{
    XSER_ASSERT(index < data_.size(), "SRAM flip out of range");
    XSER_ASSERT(stored_bit < bitsPerWord_, "stored bit out of range");
    materializeCheck(index);
    const Truth truth = truthOf(index);
    if (stored_bit < 64)
        data_[index] ^= 1ULL << stored_bit;
    else
        check_[index] ^= static_cast<uint8_t>(1u << (stored_bit - 64));
    settle(index, truth);
    ++counters_.bitFlipsInjected;
}

void
SramArray::reset()
{
    std::fill(data_.begin(), data_.end(), 0);
    // Zero truth still needs consistent check bits.
    uint8_t zero_check = 0;
    if (protection_ == Protection::Secded)
        zero_check = ecc::SecdedCodec::encode(0);
    std::fill(check_.begin(), check_.end(), zero_check);
    std::fill(state_.begin(), state_.end(), wordClean);
    truth_.clear();
    staleTruthCheck_.clear();
    counters_ = SramCounters{};
}

void
SramArray::snapshot(SnapshotWriter &writer) const
{
    const size_t words = data_.size();
    writer.u64(words);
    writer.u8(static_cast<uint8_t>(protection_));
    writer.u64(truth_.size());
    writer.u64Vector(data_);
    writer.byteVector(check_);
    // The stream carries the dense stale-flag vector. Without
    // corruption the state bytes are exactly those flags (0 or 1).
    if (truth_.empty()) {
        writer.byteVector(state_);
    } else {
        std::vector<uint8_t> stale(words);
        for (size_t i = 0; i < words; ++i)
            stale[i] = state_[i] == wordStale ? 1 : 0;
        writer.byteVector(stale);
    }
    writer.u64(counters_.bitFlipsInjected);
    writer.u64(counters_.upsetEventsInjected);
    writer.u64(counters_.corrected);
    writer.u64(counters_.uncorrected);
    writer.u64(counters_.parityErrors);
    writer.u64(counters_.miscorrections);
    writer.u64(counters_.silentEscapes);
    writer.u64(counters_.overwrittenFlips);
    if (!truth_.empty()) {
        // Dense truth, truth check bits and corruption flags, as the
        // stream format has always carried them.
        std::vector<uint64_t> truth_data = data_;
        std::vector<uint8_t> truth_check = check_;
        std::vector<uint8_t> corrupt(words, 0);
        for (const auto &[index, truth] : truth_) {
            truth_data[index] = truth.data;
            truth_check[index] = truth.check;
            corrupt[index] = 1;
        }
        for (const auto &[index, check] : staleTruthCheck_)
            truth_check[index] = check;
        writer.u64Vector(truth_data);
        writer.byteVector(truth_check);
        writer.byteVector(corrupt);
    }
}

void
SramArray::restore(SnapshotReader &reader)
{
    const uint64_t words = reader.u64();
    const auto protection = static_cast<Protection>(reader.u8());
    XSER_ASSERT(words == data_.size() && protection == protection_,
                msg("snapshot shape mismatch restoring ", name_));
    const uint64_t corrupt_words = reader.u64();
    reader.u64Vector(data_);
    reader.byteVector(check_);
    reader.byteVector(state_);
    XSER_ASSERT(data_.size() == words && check_.size() == words &&
                    state_.size() == words,
                msg("snapshot vector length mismatch restoring ", name_));
    for (uint8_t &state : state_)
        state = state != 0 ? wordStale : wordClean;
    counters_.bitFlipsInjected = reader.u64();
    counters_.upsetEventsInjected = reader.u64();
    counters_.corrected = reader.u64();
    counters_.uncorrected = reader.u64();
    counters_.parityErrors = reader.u64();
    counters_.miscorrections = reader.u64();
    counters_.silentEscapes = reader.u64();
    counters_.overwrittenFlips = reader.u64();
    truth_.clear();
    staleTruthCheck_.clear();
    if (corrupt_words == 0)
        return;
    // Only the flagged words' truth is kept; every other word is its
    // own truth by the corruption invariant (up to the check bits of
    // stale words, see staleTruthCheck_).
    std::vector<uint64_t> truth_data;
    std::vector<uint8_t> truth_check;
    std::vector<uint8_t> corrupt;
    reader.u64Vector(truth_data);
    reader.byteVector(truth_check);
    reader.byteVector(corrupt);
    XSER_ASSERT(truth_data.size() == words && truth_check.size() == words &&
                    corrupt.size() == words,
                msg("snapshot vector length mismatch restoring ", name_));
    for (size_t i = 0; i < words; ++i) {
        if (corrupt[i] != 0) {
            truth_.emplace_hint(truth_.end(), i,
                                Truth{truth_data[i], truth_check[i]});
            state_[i] = wordCorrupt;
        } else if (truth_check[i] != check_[i]) {
            staleTruthCheck_.emplace_hint(staleTruthCheck_.end(), i,
                                          truth_check[i]);
        }
    }
    XSER_ASSERT(truth_.size() == corrupt_words,
                msg("snapshot corruption count mismatch restoring ",
                    name_));
}

} // namespace xser::mem
