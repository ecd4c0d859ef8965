#include "common/page_buffer.hpp"

#include <algorithm>
#include <cstring>
#include <exception>

#if WATZ_PAGE_BUFFER_MMAP
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace watz {

void PageBuffer::swap(PageBuffer& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
#if WATZ_PAGE_BUFFER_MMAP
  std::swap(mapped_, other.mapped_);
#else
  heap_.swap(other.heap_);
#endif
}

#if WATZ_PAGE_BUFFER_MMAP

namespace {

std::size_t page_size() noexcept {
  static const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// Maps `bytes` (page-rounded) read/write with the guard page after them.
std::uint8_t* map_with_guard(std::size_t bytes) noexcept {
  void* p = ::mmap(nullptr, bytes + page_size(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  auto* base = static_cast<std::uint8_t*>(p);
  if (::mprotect(base + bytes, page_size(), PROT_NONE) != 0) {
    ::munmap(p, bytes + page_size());
    return nullptr;
  }
  return base;
}

}  // namespace

PageBuffer::~PageBuffer() {
  if (data_ != nullptr) ::munmap(data_, mapped_ + page_size());
}

bool PageBuffer::resize(std::size_t size) noexcept {
  const std::size_t page = page_size();
  // No host maps this much; refusing it first keeps the rounding from
  // wrapping.
  if (size > SIZE_MAX / 2) return false;
  const std::size_t mapped = (size + page - 1) & ~(page - 1);
  if (mapped == 0) {
    PageBuffer().swap(*this);  // the temporary unmaps the old region
    return true;
  }
  if (mapped_ == 0) {
    std::uint8_t* fresh = map_with_guard(mapped);
    if (fresh == nullptr) return false;
    data_ = fresh;
  } else if (mapped > mapped_) {
#ifdef MREMAP_MAYMOVE
    // Only the data pages move: mremap cannot span the guard, whose
    // protection makes it a separate mapping. The grown tail is fresh zero
    // pages; its last page becomes the new guard and the old one goes.
    void* p = ::mremap(data_, mapped_, mapped + page, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) return false;
    ::munmap(data_ + mapped_, page);
    data_ = static_cast<std::uint8_t*>(p);
    if (::mprotect(data_ + mapped, page, PROT_NONE) != 0)
      ::munmap(data_ + mapped, page);
#else
    std::uint8_t* fresh = map_with_guard(mapped);
    if (fresh == nullptr) return false;
    std::memcpy(fresh, data_, size_);
    ::munmap(data_, mapped_ + page);
    data_ = fresh;
#endif
  } else if (mapped < mapped_) {
    // Shrink in place. MAP_FIXED swaps the first dropped page for a fresh
    // guard atomically, so no other mapping can land there in between;
    // then the rest of the dropped pages and the old guard are unmapped.
    if (::mmap(data_ + mapped, page, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED,
               -1, 0) == MAP_FAILED)
      return false;
    ::munmap(data_ + mapped + page, mapped_ - mapped);
  }
  if (size < size_) std::memset(data_ + size, 0, std::min(size_, mapped) - size);
  size_ = size;
  mapped_ = mapped;
  return true;
}

void PageBuffer::zero() noexcept {
  if (size_ == 0) return;
#if defined(__linux__)
  // Private anonymous pages dropped with MADV_DONTNEED read as zero again.
  if (size_ > kMemsetZeroLimit && ::madvise(data_, mapped_, MADV_DONTNEED) == 0) return;
#endif
  std::memset(data_, 0, size_);
}

#else  // !WATZ_PAGE_BUFFER_MMAP

PageBuffer::~PageBuffer() = default;

bool PageBuffer::resize(std::size_t size) noexcept {
  try {
    heap_.resize(size);
  } catch (const std::exception&) {
    return false;
  }
  data_ = heap_.data();
  size_ = size;
  return true;
}

void PageBuffer::zero() noexcept { std::fill(heap_.begin(), heap_.end(), 0); }

#endif

}  // namespace watz
