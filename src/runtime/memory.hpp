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

// Counters of the exchange buffer pool that chunk frames once leased
// their payloads from. Frames are views of the sender's sorted run now, so
// every field reads zero; the struct stays only because the benchmark's
// runtime.pool.* metrics read it, and goes when they retire.
struct BufferPoolStats {
  std::uint64_t leases = 0;
  std::uint64_t reuses = 0;
  std::uint64_t fresh_allocs = 0;
  std::uint64_t returns = 0;
  std::size_t peak_free = 0;
};

}  // namespace pgxd::rt
