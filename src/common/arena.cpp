#include "common/arena.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <new>
#include <tuple>
#include <utility>

#include "common/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace ltnc {

namespace {

constexpr std::size_t kMaxBlockAlignment = 64;  // cache line / AVX-512
// Classes above a quarter slab get a slab of their own, so a block that
// does not fit the current slab strands less than a quarter of it.
constexpr std::size_t kMaxCarvedBytes = WordArena::kSlabBytes / 4;

using FreeLists = std::vector<std::vector<std::uint64_t*>>;

// The process-wide owner of every slab, and of the blocks and slab tails
// that destroyed arenas hand over. Leaked on purpose, like the main
// thread's arena: blocks carved from its slabs may be leased, held or
// listed until the very end of the process.
class SlabOwner {
 public:
  static SlabOwner& get() {
    static SlabOwner* const owner = new SlabOwner;
    return *owner;
  }

  /// A new poisoned slab of `bytes`.
  std::uintptr_t new_slab(std::size_t bytes) {
    void* slab = ::operator new(bytes, std::align_val_t{kMaxBlockAlignment});
    ASAN_POISON_MEMORY_REGION(slab, bytes);
    std::lock_guard<std::mutex> lock(mu_);
    slabs_.push_back(slab);
    footprint_bytes_ += bytes;
    return reinterpret_cast<std::uintptr_t>(slab);
  }

  /// The uncarved tail of a destroyed arena's slab if there is one, else a
  /// new slab.
  std::pair<std::uintptr_t, std::uintptr_t> next_span() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!spans_.empty()) {
        const auto span = spans_.back();
        spans_.pop_back();
        return span;
      }
    }
    const std::uintptr_t slab = new_slab(WordArena::kSlabBytes);
    return {slab, slab + WordArena::kSlabBytes};
  }

  /// Moves the owner's blocks of class `cls` into `into`, which is empty.
  void adopt(std::size_t cls, std::vector<std::uint64_t*>& into) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cls < free_lists_.size()) into.swap(free_lists_[cls]);
  }

  /// Takes a destroyed arena's cached blocks and its uncarved slab tail.
  void retire(const FreeLists& lists, std::uintptr_t cursor,
              std::uintptr_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_lists_.size() < lists.size()) free_lists_.resize(lists.size());
    for (std::size_t cls = 0; cls < lists.size(); ++cls) {
      free_lists_[cls].insert(free_lists_[cls].end(), lists[cls].begin(),
                              lists[cls].end());
    }
    if (cursor < end) spans_.emplace_back(cursor, end);
  }

  std::size_t footprint_bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    return footprint_bytes_;
  }

 private:
  std::mutex mu_;
  std::vector<void*> slabs_;  ///< every slab, so each stays reachable
  std::size_t footprint_bytes_ = 0;
  FreeLists free_lists_;      ///< blocks handed over by destroyed arenas
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> spans_;  ///< tails
};

}  // namespace

WordArena::~WordArena() {
  SlabOwner::get().retire(free_lists_, cursor_, end_);
}

std::size_t WordArena::class_index(std::size_t words) {
  return std::bit_width(words - 1);  // ceil(log2(words)); words >= 1
}

std::uint64_t* WordArena::lease(std::size_t words) {
  std::uint64_t* ptr = lease_uninitialized(words);
  if (ptr != nullptr) std::memset(ptr, 0, words * 8);
  return ptr;
}

std::uint64_t* WordArena::lease_uninitialized(std::size_t words) {
  if (words == 0) return nullptr;
  ++stats_.leases;
  stats_.live_words += words;
  const std::size_t cls = class_index(words);
  if (free_lists_.size() <= cls) free_lists_.resize(cls + 1);
  std::vector<std::uint64_t*>& list = free_lists_[cls];
  if (list.empty()) SlabOwner::get().adopt(cls, list);
  std::uint64_t* ptr;
  if (!list.empty()) {
    ptr = list.back();
    list.pop_back();
    ++stats_.recycled_blocks;
  } else {
    ptr = carve(class_words(cls) * 8);
    ++stats_.fresh_blocks;
  }
  ASAN_UNPOISON_MEMORY_REGION(ptr, words * 8);
  return ptr;
}

std::uint64_t* WordArena::carve(std::size_t bytes) {
  if (bytes > kMaxCarvedBytes) {
    return reinterpret_cast<std::uint64_t*>(SlabOwner::get().new_slab(bytes));
  }
  const std::uintptr_t align = std::min(bytes, kMaxBlockAlignment);
  for (;;) {
    const std::uintptr_t at = (cursor_ + align - 1) & ~(align - 1);
    if (at + bytes <= end_) {
      cursor_ = at + bytes;
      return reinterpret_cast<std::uint64_t*>(at);
    }
    // The rest of this slab stays poisoned and unused.
    std::tie(cursor_, end_) = SlabOwner::get().next_span();
  }
}

void WordArena::release(std::uint64_t* ptr, std::size_t words) {
  if (ptr == nullptr) return;
  LTNC_DCHECK(words != 0);
  ++stats_.releases;
  stats_.live_words -= words;
  const std::size_t cls = class_index(words);
  ASAN_POISON_MEMORY_REGION(ptr, class_words(cls) * 8);
  if (free_lists_.size() <= cls) free_lists_.resize(cls + 1);
  free_lists_[cls].push_back(ptr);
}

std::size_t WordArena::slab_footprint_bytes() {
  return SlabOwner::get().footprint_bytes();
}

namespace {
// Constant-initialized TLS slot (no guard variable on the hot path).
// Leaked on purpose for the main thread: BitVector/Payload statics may
// release during exit teardown, after a normally-destroyed thread_local
// would be gone. Worker threads opt into cleanup via reclaim_local().
thread_local WordArena* tls_arena = nullptr;
}  // namespace

WordArena& WordArena::local() {
  if (tls_arena == nullptr) tls_arena = new WordArena;
  return *tls_arena;
}

void WordArena::reclaim_local() {
  delete tls_arena;  // ~WordArena hands its blocks to the slab owner
  tls_arena = nullptr;
}

}  // namespace ltnc
