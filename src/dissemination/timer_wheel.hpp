// Hierarchical timer wheel — the discrete-event core of the million-node
// simulator (scheme 6.2 of Varghese & Lauck's "Hashed and Hierarchical
// Timing Wheels").
//
// Events live in one of four wheels of 64 slots each, bucketed by how far
// ahead of the cursor they land: level 0 resolves single ticks, each
// higher level is 64× coarser, and anything past the 2^24-tick horizon
// waits in an overflow bucket that re-enters the wheels as the cursor
// approaches. Advancing the cursor across a lap boundary cascades the
// boundary slot of the next level down, re-bucketing by remaining delta —
// so schedule and pop are both O(1) amortised regardless of how many idle
// ticks separate events. That is the property the event engine
// buys: a million mostly-idle nodes cost nothing per tick; only scheduled
// work pays.
//
// Determinism contract (the simulator depends on it):
//   * pop_next() returns events in non-decreasing time order;
//   * events with equal times come back in schedule() call order (FIFO) —
//     the due slot is seq-sorted once per tick before draining, so
//     same-tick ordering is a stable, documented property regardless of
//     which cascade path an entry took.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ltnc::dissem {

template <typename Event>
class TimerWheel {
 public:
  TimerWheel() = default;

  std::uint64_t now() const { return now_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Schedules `event` at absolute tick `time` (>= now()). Same-time
  /// events fire in the order they were scheduled.
  void schedule(std::uint64_t time, Event event) {
    LTNC_CHECK_MSG(time >= now_, "timer wheel cannot schedule in the past");
    place(Entry{time, next_seq_++, std::move(event)});
    ++size_;
  }

  /// Pops the earliest event, advancing the cursor to its timestamp.
  /// Returns nullopt (and leaves the cursor alone) when the wheel is
  /// empty.
  std::optional<Event> pop_next() {
    while (size_ > 0) {
      // Drain the slot under the cursor first: level 0 holds exactly the
      // events due at times now_..now_+63 of the current lap. Entries can
      // reach this slot along different paths (scheduled directly, or
      // cascaded down from coarser levels at different boundaries), so
      // restore global FIFO by sorting on seq once per tick — cheap, the
      // slot only holds this tick's events.
      std::vector<Entry>& slot = levels_[0][now_ & kMask];
      if (sorted_tick_ != now_) {
        sorted_tick_ = now_;
        if (slot.size() > 1) {
          std::sort(slot.begin(), slot.end(),
                    [](const Entry& a, const Entry& b) {
                      return a.time != b.time ? a.time < b.time
                                              : a.seq < b.seq;
                    });
        }
      }
      // A resident stamped with a later lap ends this tick's events.
      if (cursor_ < slot.size() && slot[cursor_].time == now_) {
        Entry taken = std::move(slot[cursor_]);
        if (++cursor_ == slot.size()) {
          slot.clear();
          cursor_ = 0;
        }
        --size_;
        return std::move(taken.event);
      }
      // Slot exhausted for this tick — step the cursor, cascading the
      // coarser wheels whenever a 64-tick lap boundary is crossed.
      if (cursor_ != 0) {
        // Entries belonging to a future lap share this slot; compact the
        // consumed prefix before moving on.
        slot.erase(slot.begin(),
                   slot.begin() + static_cast<std::ptrdiff_t>(cursor_));
        cursor_ = 0;
      }
      advance_one_tick();
    }
    return std::nullopt;
  }

 private:
  static constexpr std::size_t kSlotBits = 6;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 64
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr std::size_t kLevels = 4;
  /// Deltas at or past 64^4 ticks wait in the overflow bucket.
  static constexpr std::uint64_t kHorizon = std::uint64_t{1}
                                            << (kSlotBits * kLevels);

  struct Entry {
    std::uint64_t time = 0;
    std::uint64_t seq = 0;
    Event event;
  };

  /// Buckets an entry by its remaining delta. Level L slot index is the
  /// L-th 6-bit digit of the absolute time — the cascade invariant: when
  /// the cursor reaches a level-L boundary, every resident of that slot
  /// has delta < 64^L and re-buckets strictly downward.
  void place(Entry entry) {
    const std::uint64_t delta =
        entry.time > now_ ? entry.time - now_ : 0;
    if (delta >= kHorizon) {
      overflow_.push_back(std::move(entry));
      return;
    }
    std::size_t level = 0;
    while (delta >> (kSlotBits * (level + 1)) != 0) ++level;
    const std::size_t slot =
        (entry.time >> (kSlotBits * level)) & kMask;
    levels_[level][slot].push_back(std::move(entry));
  }

  void advance_one_tick() {
    ++now_;
    // Cascade every level whose lap boundary the new cursor position
    // crosses; level L cascades when the L low digits turn zero.
    for (std::size_t level = 1; level < kLevels; ++level) {
      const std::uint64_t lap_mask =
          (std::uint64_t{1} << (kSlotBits * level)) - 1;
      if ((now_ & lap_mask) != 0) break;
      std::vector<Entry>& slot =
          levels_[level][(now_ >> (kSlotBits * level)) & kMask];
      if (slot.empty()) continue;
      std::vector<Entry> moving;
      moving.swap(slot);
      for (Entry& entry : moving) place(std::move(entry));
    }
    // The overflow bucket re-enters once per full top-level lap.
    if ((now_ & (kHorizon / kSlots - 1)) == 0 && !overflow_.empty()) {
      std::vector<Entry> moving;
      moving.swap(overflow_);
      for (Entry& entry : moving) {
        if (entry.time - now_ < kHorizon) {
          place(std::move(entry));
        } else {
          overflow_.push_back(std::move(entry));
        }
      }
    }
  }

  std::uint64_t now_ = 0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sorted_tick_ = ~std::uint64_t{0};
  std::size_t cursor_ = 0;  ///< consumed prefix of the slot under now_
  std::vector<Entry> levels_[kLevels][kSlots];
  std::vector<Entry> overflow_;
};

}  // namespace ltnc::dissem
