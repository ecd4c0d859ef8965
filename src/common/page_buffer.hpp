// Zero-on-demand byte region: the storage behind every sandbox store
// (Wasm linear memory, secure-heap allocations, world-shared buffers).
//
// On hosts with mmap the region is a private anonymous mapping, so its
// pages read as zero and cost nothing until first touched: a 32 MiB linear
// memory or a 12 MB heap reservation that the guest barely uses is paid
// for by the pages it touches, not by its declared size. A PROT_NONE guard
// page follows the last mapped byte, so a host-side overrun faults at once
// (linear memory is outside ASan's view, which used to catch it in a
// redzone). Elsewhere the region is a zero-filled heap buffer behind the
// same interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/bytes.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define WATZ_PAGE_BUFFER_MMAP 1
#else
#define WATZ_PAGE_BUFFER_MMAP 0
#endif

namespace watz {

class PageBuffer {
 public:
  /// Regions up to this size are zeroed in place by zero(); larger ones
  /// hand their pages back to the OS (the next touch faults in a zero
  /// page). A small region is cheaper to memset than to fault back in on
  /// every reuse; a large, sparsely touched one is the other way round.
  static constexpr std::size_t kMemsetZeroLimit = std::size_t{1} << 20;

  /// An empty region; resize() maps it.
  PageBuffer() = default;
  PageBuffer(PageBuffer&& other) noexcept { swap(other); }
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    PageBuffer(std::move(other)).swap(*this);
    return *this;
  }
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer();

  std::size_t size() const noexcept { return size_; }
  std::uint8_t* data() noexcept { return data_; }
  const std::uint8_t* data() const noexcept { return data_; }
  ByteView view() const noexcept { return ByteView(data_, size_); }

  /// Grows or shrinks to `size` bytes, keeping the first min(old, new)
  /// bytes; bytes past the old size read as zero. The region may move.
  /// Returns false, with size and contents unchanged, when the host
  /// refuses the mapping.
  bool resize(std::size_t size) noexcept;

  /// Sets every byte to zero, keeping the size and the mapping.
  void zero() noexcept;

 private:
  void swap(PageBuffer& other) noexcept;

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
#if WATZ_PAGE_BUFFER_MMAP
  /// Page-rounded bytes mapped read/write at data_; the guard page
  /// follows them. Bytes in [size_, mapped_) are kept zero.
  std::size_t mapped_ = 0;
#else
  Bytes heap_;
#endif
};

}  // namespace watz
