// Per-machine memory accounting, split the way Fig. 11 reports it:
// persistent ("RSS": result arrays + provenance bookkeeping that live to the
// end of the sort) versus temporary (scratch that is freed before the sort
// returns).
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace pgxd::rt {

class MemoryTracker {
 public:
  void alloc_persistent(std::uint64_t bytes) {
    persistent_ += bytes;
    peak_persistent_ = std::max(peak_persistent_, persistent_);
    bump_total_peak();
  }

  void alloc_temp(std::uint64_t bytes) {
    temp_ += bytes;
    peak_temp_ = std::max(peak_temp_, temp_);
    bump_total_peak();
  }

  void free_temp(std::uint64_t bytes) {
    PGXD_CHECK_MSG(bytes <= temp_, "temp free exceeds allocation");
    temp_ -= bytes;
  }

  std::uint64_t persistent() const { return persistent_; }
  std::uint64_t temp() const { return temp_; }
  std::uint64_t peak_persistent() const { return peak_persistent_; }
  std::uint64_t peak_temp() const { return peak_temp_; }
  std::uint64_t peak_total() const { return peak_total_; }

  void reset() { *this = MemoryTracker{}; }

 private:
  void bump_total_peak() {
    peak_total_ = std::max(peak_total_, persistent_ + temp_);
  }

  std::uint64_t persistent_ = 0;
  std::uint64_t temp_ = 0;
  std::uint64_t peak_persistent_ = 0;
  std::uint64_t peak_temp_ = 0;
  std::uint64_t peak_total_ = 0;
};

// RAII scope for a temporary allocation.
class TempAlloc {
 public:
  TempAlloc(MemoryTracker& mem, std::uint64_t bytes) : mem_(&mem), bytes_(bytes) {
    mem_->alloc_temp(bytes_);
  }
  TempAlloc(const TempAlloc&) = delete;
  TempAlloc& operator=(const TempAlloc&) = delete;
  TempAlloc(TempAlloc&& o) noexcept : mem_(o.mem_), bytes_(o.bytes_) {
    o.mem_ = nullptr;
  }
  TempAlloc& operator=(TempAlloc&&) = delete;
  ~TempAlloc() {
    if (mem_) mem_->free_temp(bytes_);
  }

 private:
  MemoryTracker* mem_;
  std::uint64_t bytes_;
};

struct BufferPoolStats {
  std::uint64_t leases = 0;        // acquire() calls
  std::uint64_t reuses = 0;        // leases served from the free list
  std::uint64_t fresh_allocs = 0;  // leases that had to allocate
  std::uint64_t returns = 0;       // release() calls
  std::size_t peak_free = 0;       // high-water mark of the free list
};

// Recycling pool of vector buffers for the exchange hot path: chunk
// payloads are leased here by the sender and returned by the receiver once
// placed, so a steady-state exchange allocates O(outstanding buffers) ≈ O(p)
// vectors total instead of one per chunk — including under reliable-mode
// retransmits, which resend modeled bytes only and never touch a payload
// after its first delivery.
//
// Thread-safety contract: acquire()/release()/free_buffers()/outstanding()
// may race freely (a mutex guards the free list and tallies — uncontended
// in the simulator, where machines are cooperatively scheduled coroutines
// in one OS thread). stats() returns an unlocked reference and is for
// quiescent reads only: after a sort completes or between exchanges, never
// concurrently with lease/release traffic.
template <typename T>
class BufferPool {
 public:
  // Leases a buffer with capacity >= reserve_hint, empty. Reuses the most
  // recently returned buffer when one is available.
  std::vector<T> acquire(std::size_t reserve_hint) {
    std::vector<T> buf;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.leases;
      if (!free_.empty()) {
        ++stats_.reuses;
        buf = std::move(free_.back());
        free_.pop_back();
      } else {
        ++stats_.fresh_allocs;
      }
    }
    buf.clear();
    buf.reserve(reserve_hint);
    return buf;
  }

  // Returns a buffer to the free list. Any buffer is accepted — a
  // duplicating fabric clones messages, so returns may outnumber leases —
  // but storage already on the free list is rejected loudly: releasing the
  // same allocation twice would alias two future leases.
  void release(std::vector<T>&& buf) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.returns;
    if (buf.capacity() == 0) return;  // moved-from or never allocated
    for (const auto& f : free_)
      PGXD_CHECK_MSG(f.data() != buf.data(),
                     "buffer pool: storage released twice");
    free_.push_back(std::move(buf));
    stats_.peak_free = std::max(stats_.peak_free, free_.size());
  }

  // Recovery-supervisor hook, quiescent-state only: buffers leased into an
  // aborted attempt are destroyed along with the drained mailboxes and can
  // never be release()d, which would leave `outstanding` permanently
  // inflated and eventually wedge the next attempt's backpressure loop.
  // Reconciling counts every unreturned lease as returned-by-destruction.
  void reconcile_after_drain() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.returns = std::max(stats_.returns, stats_.leases);
  }

  std::size_t free_buffers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

  // Leased-but-unreturned buffers. Signed: a duplicating fabric returns
  // cloned storage that was never leased, which can push returns past
  // leases — that undercounts outstanding, which only ever relaxes
  // backpressure, never wedges it.
  std::int64_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(stats_.leases) -
           static_cast<std::int64_t>(stats_.returns);
  }

  // Quiescent-state read (see the class comment).
  const BufferPoolStats& stats() const { return stats_; }

 private:
  mutable std::mutex mu_;  // pgxd-lock-order: buffer-pool rank 10
  std::vector<std::vector<T>> free_;
  BufferPoolStats stats_;
};

}  // namespace pgxd::rt
