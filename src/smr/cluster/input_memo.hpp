// Raw-input memo for the fluid solves: the last kEntries distinct inputs
// and their answers, least recently used evicted first.
//
// NetworkModel and ComputeModel answer a call from it when the raw inputs
// compare bit-equal to a remembered entry.  Their outputs are pure
// functions of those inputs, so a hit is exact, whatever the entry's age.
// Two entries catch the period-2 repeats of a serving run (a node or the
// shuffle alternating between two states), which most repeats are;
// docs/PERF.md §6 has the measurements and why not more.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace smr::cluster {

template <class Entry>
class InputMemo {
 public:
  static constexpr std::size_t kEntries = 2;

  /// The most recently used entry `matches` accepts, marked most recent;
  /// nullptr when none does.
  template <class Match>
  Entry* find(Match&& matches) {
    for (std::size_t k = 0; k < used_; ++k) {
      Entry& entry = entries_[order_[k]];
      if (!matches(static_cast<const Entry&>(entry))) continue;
      touch(k);
      return &entry;
    }
    return nullptr;
  }

  /// The entry to overwrite with a new input (an unused one, else the
  /// least recently used), marked most recent.  Its storage is kept, so
  /// refilling it reuses the buffers.
  Entry& replace() {
    if (used_ < kEntries) {
      order_[used_] = static_cast<std::uint8_t>(used_);
      ++used_;
    }
    touch(used_ - 1);
    return entries_[order_[0]];
  }

 private:
  /// Move order_[k] to the front, shifting the more recent ones back.
  void touch(std::size_t k) {
    const std::uint8_t index = order_[k];
    for (; k > 0; --k) order_[k] = order_[k - 1];
    order_[0] = index;
  }

  std::array<Entry, kEntries> entries_{};
  /// Entry indices, most recently used first; the first used_ are valid.
  std::array<std::uint8_t, kEntries> order_{};
  std::size_t used_ = 0;
};

}  // namespace smr::cluster
