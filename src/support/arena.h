// Fixed-chunk slab pool for hot-path pipeline objects.
//
// The request pipeline allocates many short-lived, identically-sized objects
// (queued I/O reservations, span-trace events). Allocating each from the
// general heap costs a malloc/free pair per object plus cache-scattered
// placement; this pool hands out fixed-size chunks carved from slabs and
// recycles them through an intrusive free list, so steady-state
// allocate/release cycles touch no allocator at all and neighbors in
// allocation order tend to be neighbors in memory.
//
// Addresses are stable for the lifetime of a generation: a chunk returned by
// Allocate() stays put until Release() or Reset(). Reset() reclaims every
// chunk at once (without running destructors — callers own object lifetime)
// and bumps the generation counter so holders of stale pointers can detect
// reuse.
//
// Not thread-safe; the simulator is single-threaded by design.

#ifndef SSMC_SRC_SUPPORT_ARENA_H_
#define SSMC_SRC_SUPPORT_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ssmc {

class RequestArena {
 public:
  // `chunk_bytes` is the fixed allocation size (at least pointer-sized, for
  // the free-list link). `chunks_per_slab` tunes the growth quantum.
  explicit RequestArena(size_t chunk_bytes, size_t chunks_per_slab = 64);

  RequestArena(const RequestArena&) = delete;
  RequestArena& operator=(const RequestArena&) = delete;

  // O(1). Pops the free list, carving a new slab only when it is empty.
  void* Allocate();

  // O(1). Returns `p` (which must have come from this arena's current
  // generation) to the free list.
  void Release(void* p);

  // Reclaims every outstanding chunk and bumps the generation. Does not run
  // destructors and does not return slab memory to the heap — the high-water
  // mark is retained for reuse.
  void Reset();

  // Typed helpers: placement-construct / destroy in a chunk.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return ::new (Allocate()) T(std::forward<Args>(args)...);
  }
  template <typename T>
  void Delete(T* p) {
    p->~T();
    Release(p);
  }

  uint64_t generation() const { return generation_; }
  size_t chunk_bytes() const { return chunk_bytes_; }
  // Chunks currently handed out / total chunks ever carved.
  size_t live() const { return live_; }
  size_t capacity() const { return slabs_.size() * chunks_per_slab_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  void CarveSlab();

  size_t chunk_bytes_;
  size_t chunks_per_slab_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  FreeNode* free_ = nullptr;
  size_t live_ = 0;
  uint64_t generation_ = 1;
};

// A standard-library allocator over a RequestArena: single objects no larger
// than a chunk come from the arena, anything else (arrays, such as a hash
// table's buckets) from the heap. Node-based containers sharing one arena
// then allocate and free their nodes without touching the heap, and the
// arena hands its slabs back in a few calls when it dies. The arena must
// outlive every container using it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(RequestArena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return Pooled(n) ? static_cast<T*>(arena_->Allocate())
                     : std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, size_t n) {
    if (Pooled(n)) {
      arena_->Release(p);
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  RequestArena* arena() const { return arena_; }
  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  // Chunks are max-aligned, so size is the only limit.
  bool Pooled(size_t n) const {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    return n == 1 && sizeof(T) <= arena_->chunk_bytes();
  }

  RequestArena* arena_;
};

}  // namespace ssmc

#endif  // SSMC_SRC_SUPPORT_ARENA_H_
