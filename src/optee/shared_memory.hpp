// World-shared memory buffers.
//
// OP-TEE TAs cannot touch normal-world memory directly; data crosses the
// boundary through registered shared buffers, and OP-TEE caps their total
// size. The paper raised that cap to 9 MB ("the largest value that would
// not break OP-TEE", SS V) — the same default ceiling applies here, and
// allocation failures reproduce the paper's operational constraint.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/page_buffer.hpp"
#include "common/result.hpp"

namespace watz::optee {

inline constexpr std::size_t kDefaultSharedMemoryCap = 9 * 1024 * 1024;

class SharedMemoryPool;

/// A handle to one shared buffer. Movable, returns its bytes to the pool on
/// destruction. Zero on demand, like SecureAlloc.
class SharedBuffer {
 public:
  SharedBuffer() = default;
  SharedBuffer(SharedBuffer&& other) noexcept { *this = std::move(other); }
  SharedBuffer& operator=(SharedBuffer&& other) noexcept;
  SharedBuffer(const SharedBuffer&) = delete;
  SharedBuffer& operator=(const SharedBuffer&) = delete;
  ~SharedBuffer();

  bool valid() const noexcept { return pool_ != nullptr; }
  std::size_t size() const noexcept { return data_.size(); }
  std::uint8_t* data() noexcept { return data_.data(); }
  const std::uint8_t* data() const noexcept { return data_.data(); }
  ByteView view() const noexcept { return data_.view(); }

 private:
  friend class SharedMemoryPool;
  SharedMemoryPool* pool_ = nullptr;
  PageBuffer data_;
};

class SharedMemoryPool {
 public:
  explicit SharedMemoryPool(std::size_t cap = kDefaultSharedMemoryCap) : cap_(cap) {}

  /// Allocates a zeroed buffer; fails when the pool cap would be exceeded
  /// (the OP-TEE "increase the memory cap" pain point, SS V).
  Result<SharedBuffer> allocate(std::size_t size);

  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t cap() const noexcept { return cap_; }

 private:
  friend class SharedBuffer;
  void release(std::size_t size) noexcept { in_use_ -= size; }

  std::size_t cap_;
  std::size_t in_use_ = 0;
};

}  // namespace watz::optee
