// Pooled memory allocation (§3.2.3).
//
// All intermediate full-array requests of a compiled pipeline go through
// this allocator. pool_allocate scans the table of existing buffers for a
// free one of sufficient size before creating a new one; pool_deallocate
// is a table update. Buffers are only truly freed when the pool is
// destroyed (or clear()ed) — i.e. after the last multigrid cycle — so
// repeated cycle invocations perform no malloc traffic after the first.
#pragma once

#include <cstddef>
#include <vector>

#include "polymg/common/align.hpp"
#include "polymg/poly/interval.hpp"

namespace polymg::obs {
class Counter;
class Gauge;
}

namespace polymg::runtime {

using poly::index_t;

class MemoryPool {
public:
  MemoryPool();
  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// Return a buffer of at least `doubles` elements: `prefer` when it is
  /// a free pooled buffer that fits, else the tightest free pooled buffer
  /// that fits, otherwise a fresh allocation.
  double* pool_allocate(index_t doubles, const double* prefer = nullptr);

  /// Mark the buffer free for reuse. `p` must have come from
  /// pool_allocate and not already be free.
  void pool_deallocate(double* p);

  /// Release every buffer back to the OS.
  void clear();

  // Introspection for tests and the storage-optimization reports.
  int live_buffers() const;
  int total_buffers() const { return static_cast<int>(entries_.size()); }
  index_t total_doubles() const;
  long malloc_calls() const { return malloc_calls_; }
  long reuse_hits() const { return reuse_hits_; }

private:
  struct Entry {
    AlignedPtr<double> data;
    index_t doubles = 0;
    bool free = false;
  };
  std::vector<Entry> entries_;
  long malloc_calls_ = 0;
  long reuse_hits_ = 0;

  // obs metrics handles, resolved once at construction (the allocate /
  // deallocate paths run under the executor's pool lock on measured
  // runs and must not touch the registry map).
  obs::Counter* ctr_malloc_ = nullptr;  // pool.malloc_calls
  obs::Counter* ctr_reuse_ = nullptr;   // pool.reuse_hits
  obs::Gauge* g_bytes_live_ = nullptr;  // pool.bytes_live (value + peak)
};

}  // namespace polymg::runtime
