// WordArena — recycling limb-storage pool for the packet data plane.
//
// Every BitVector and Payload leases its 64-bit limb array from an arena
// instead of owning a heap allocation. Freed arrays go onto per-size-class
// LIFO free lists and are handed back on the next lease, so the encode /
// recode / decode loops — which create and destroy packets at a furious
// rate but over a tiny set of distinct sizes (k-bit code vectors, m-byte
// payloads) — run allocation-free at steady state. Blocks are zero-filled
// on lease.
//
// Fresh blocks are carved side by side from 64 KiB slabs rather than each
// being its own heap allocation; a size class above a quarter slab gets a
// slab of its own. Each block is aligned to its size class up to 64 bytes:
// blocks of 8 or more words are cache-line aligned for the SIMD kernels,
// and smaller ones never straddle a cache line.
//
// Lifetime contract. Slabs are never freed. They belong to one
// process-wide owner that is leaked at exit, like the main thread's arena,
// so a block stays valid for as long as anything can lease, hold or list
// it. The default arena is thread-local; the main thread's instance is
// intentionally leaked (static-destruction-order safety: a static-duration
// BitVector may release after the arena's natural destruction point). The
// library is single-threaded per *node*: one endpoint's coding state
// always lives on one thread. Buffers may still cross threads by ownership
// transfer (the SPSC frame rings swap whole WordBuf leases between an I/O
// thread and a shard worker); a buffer released on a thread other than the
// one that leased it simply lands in that thread's free lists. Only the
// per-arena Stats become a *local* view then: lease/release balance holds
// summed across the participating threads, not per thread (the threaded
// tests assert exactly that). An arena that is destroyed — a worker's
// through WordArena::reclaim_local(), which worker threads should call
// before exiting, or a local one — hands its cached blocks and the uncarved
// rest of its slab to the owner, and any arena that later finds its own
// free list of a class empty takes the owner's list of that class before
// carving. So a thread that comes and goes strands no blocks, and the
// slab footprint does not grow with the number of such threads.
//
// Under AddressSanitizer the blocks keep their overrun checks although
// they sit side by side without redzones: a slab's uncarved part, every
// listed block and the slack between a lease's words and its size class
// are poisoned, and a lease unpoisons exactly the words it hands out, so a
// write past a lease or a read after release reports use-after-poison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ltnc {

class WordArena {
 public:
  /// Bytes of one slab that fresh blocks are carved from.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  struct Stats {
    std::uint64_t leases = 0;        ///< total lease calls
    std::uint64_t releases = 0;      ///< total release calls
    std::uint64_t fresh_blocks = 0;  ///< leases served by a newly carved block
    /// Leases served from a free list: this arena's, or one a destroyed
    /// arena handed to the slab owner.
    std::uint64_t recycled_blocks = 0;
    std::uint64_t live_words = 0;    ///< words currently leased out
  };

  WordArena() = default;
  /// Hands the cached blocks and the uncarved slab tail to the slab owner
  /// for later arenas. Outstanding leases stay valid.
  ~WordArena();

  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;

  /// Leases a zero-filled array of at least `words` limbs, aligned to its
  /// size class up to 64 bytes. Returns nullptr for words == 0.
  std::uint64_t* lease(std::size_t words);

  /// Leases without the zero-fill — for callers that overwrite the whole
  /// array immediately (copies). Same recycling behaviour as lease().
  std::uint64_t* lease_uninitialized(std::size_t words);

  /// Returns an array obtained from lease()/lease_uninitialized() with the
  /// same `words` it was leased with.
  void release(std::uint64_t* ptr, std::size_t words);

  const Stats& stats() const { return stats_; }

  /// The calling thread's default arena (the main thread's is never
  /// destroyed — see header comment). All BitVector/Payload storage flows
  /// through this.
  static WordArena& local();

  /// Destroys the calling thread's default arena, handing its cached
  /// blocks to the slab owner — worker-thread exit hygiene, so short-lived
  /// shard threads neither leak their arena nor strand their recycling
  /// caches. Every object holding a lease from this thread must be gone
  /// or already transferred to another thread; a later local() call on
  /// this thread starts a fresh arena. The main thread must not call this
  /// (its arena outlives static destructors on purpose).
  static void reclaim_local();

  /// Bytes of slab memory the process has allocated so far. Slabs are
  /// never freed, so this only grows.
  static std::size_t slab_footprint_bytes();

 private:
  /// Free-list index: words are rounded up to the next power of two so a
  /// released block can serve any lease of the same class.
  static std::size_t class_index(std::size_t words);
  static std::size_t class_words(std::size_t cls) {
    return std::size_t{1} << cls;
  }

  /// A block of `bytes` (a class size) from the current slab, moving to a
  /// new one when it does not fit.
  std::uint64_t* carve(std::size_t bytes);

  std::vector<std::vector<std::uint64_t*>> free_lists_;
  std::uintptr_t cursor_ = 0;  ///< uncarved part of the current slab:
  std::uintptr_t end_ = 0;     ///< [cursor_, end_)
  Stats stats_;
};

/// A leased limb array: the storage type under BitVector and Payload.
/// Move transfers the lease; copy takes a fresh lease and memcpys. The
/// logical word count is fixed at construction.
class WordBuf {
 public:
  WordBuf() = default;

  /// Leases `words` zero-filled limbs from the thread-local arena.
  explicit WordBuf(std::size_t words)
      : ptr_(WordArena::local().lease(words)), words_(words) {}

  /// Leases `words` limbs without the zero-fill, for a caller that writes
  /// every limb before reading it.
  static WordBuf uninitialized(std::size_t words) {
    WordBuf buf;
    buf.ptr_ = WordArena::local().lease_uninitialized(words);
    buf.words_ = words;
    return buf;
  }

  WordBuf(const WordBuf& other)
      : ptr_(WordArena::local().lease_uninitialized(other.words_)),
        words_(other.words_) {
    if (words_ != 0) std::memcpy(ptr_, other.ptr_, words_ * 8);
  }

  WordBuf(WordBuf&& other) noexcept : ptr_(other.ptr_), words_(other.words_) {
    other.ptr_ = nullptr;
    other.words_ = 0;
  }

  WordBuf& operator=(const WordBuf& other) {
    if (this == &other) return *this;
    if (words_ != other.words_) {
      // Lease before release: if the lease throws, this buffer is
      // untouched and the old block is not double-listed.
      WordArena& arena = WordArena::local();
      std::uint64_t* fresh = arena.lease_uninitialized(other.words_);
      arena.release(ptr_, words_);
      ptr_ = fresh;
      words_ = other.words_;
    }
    if (words_ != 0) std::memcpy(ptr_, other.ptr_, words_ * 8);
    return *this;
  }

  WordBuf& operator=(WordBuf&& other) noexcept {
    if (this == &other) return *this;
    WordArena::local().release(ptr_, words_);
    ptr_ = other.ptr_;
    words_ = other.words_;
    other.ptr_ = nullptr;
    other.words_ = 0;
    return *this;
  }

  ~WordBuf() { WordArena::local().release(ptr_, words_); }

  std::size_t size() const { return words_; }
  std::uint64_t* data() { return ptr_; }
  const std::uint64_t* data() const { return ptr_; }

  std::uint64_t& operator[](std::size_t i) { return ptr_[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return ptr_[i]; }

  void fill_zero() {
    if (words_ != 0) std::memset(ptr_, 0, words_ * 8);
  }

  bool operator==(const WordBuf& other) const {
    return words_ == other.words_ &&
           (words_ == 0 || std::memcmp(ptr_, other.ptr_, words_ * 8) == 0);
  }
  bool operator!=(const WordBuf& other) const { return !(*this == other); }

 private:
  std::uint64_t* ptr_ = nullptr;
  std::size_t words_ = 0;
};

}  // namespace ltnc
