#ifndef PAFEAT_NN_WORKSPACE_H_
#define PAFEAT_NN_WORKSPACE_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace pafeat {

// Bump allocator over persistent slabs: the scratch space behind the
// allocation-free inference paths (Mlp::PredictInto,
// DuelingNet::PredictBatchInto, DqnAgent::ActBatch) and behind the
// weight-gradient products of Mlp::Backward. Buffers are carved with
// Alloc and released in LIFO order by rewinding to a Mark (usually via
// ArenaScope), so once the slabs have grown to a call pattern's high-water
// mark, repeated inference performs no heap allocations at all. Slabs never
// move or shrink — pointers from Alloc stay valid until their scope is
// rewound even if a later Alloc grows the arena.
//
// Not thread-safe; every thread uses its own arena (ThreadLocal), which is
// how episode fan-out and pool-split kernels stay race-free without locks.
//
// Checked builds (-DPAFEAT_CHECKED=ON) add two defenses ASan cannot provide
// (slabs are recycled, never freed, so overruns land in *live* arena
// memory): every allocation is followed by canary words verified on Rewind,
// and rewound regions are poisoned with NaNs so use-after-Rewind reads
// propagate loudly instead of silently reusing stale scratch.
class InferenceArena {
 public:
  // Position in the slab chain; only meaningful with Rewind.
  struct Mark {
    std::size_t slab = 0;
    std::size_t used = 0;
  };

  InferenceArena() = default;
  InferenceArena(const InferenceArena&) = delete;
  InferenceArena& operator=(const InferenceArena&) = delete;

  // Returns `count` floats of uninitialized scratch (count 0 is valid).
  float* Alloc(std::size_t count);

  Mark Snapshot() const { return {slab_, used_}; }
  void Rewind(const Mark& mark);

  // The calling thread's arena, created on first use and kept for the
  // thread's lifetime (pool workers are persistent, so steady state is one
  // warm arena per executor).
  static InferenceArena* ThreadLocal();

  // Observability for tests: total floats owned / number of slab
  // allocations ever made. Both must stabilize once inference is warm.
  std::size_t capacity_floats() const;
  long long slab_allocations() const { return slab_allocations_; }

 private:
  struct Slab {
    std::unique_ptr<float[]> data;
    std::size_t size = 0;
  };

  // 64 KiB minimum slab: one slab covers a whole single-row Q-value query.
  static constexpr std::size_t kMinSlabFloats = std::size_t{1} << 14;

  std::vector<Slab> slabs_;
  std::size_t slab_ = 0;  // index of the slab Alloc carves from
  std::size_t used_ = 0;  // floats used in that slab
  long long slab_allocations_ = 0;

#ifdef PAFEAT_CHECKED
  // Live allocations in carve order; Rewind pops the suffix released by the
  // mark and verifies each block's trailing canary words.
  struct AllocRecord {
    std::size_t slab;
    std::size_t offset;  // first float of the user block
    std::size_t count;   // user floats (canaries start at offset + count)
  };
  std::vector<AllocRecord> live_allocs_;
#endif
};

// RAII stack discipline for arena use: everything Alloc'd inside the scope
// is reclaimed (not freed — kept for reuse) when the scope ends.
class ArenaScope {
 public:
  explicit ArenaScope(InferenceArena* arena)
      : arena_(arena), mark_(arena->Snapshot()) {}
  ~ArenaScope() { arena_->Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  InferenceArena* arena_;
  InferenceArena::Mark mark_;
};

}  // namespace pafeat

#endif  // PAFEAT_NN_WORKSPACE_H_
