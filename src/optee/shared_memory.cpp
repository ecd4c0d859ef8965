#include "optee/shared_memory.hpp"

namespace watz::optee {

SharedBuffer& SharedBuffer::operator=(SharedBuffer&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->release(data_.size());
    pool_ = other.pool_;
    data_ = std::move(other.data_);
    other.pool_ = nullptr;
  }
  return *this;
}

SharedBuffer::~SharedBuffer() {
  if (pool_ != nullptr) pool_->release(data_.size());
}

Result<SharedBuffer> SharedMemoryPool::allocate(std::size_t size) {
  if (size == 0) return Result<SharedBuffer>::err("shm: zero-sized buffer");
  if (in_use_ + size > cap_)
    return Result<SharedBuffer>::err(
        "shm: shared memory cap exceeded (OP-TEE limit, see DESIGN.md)");
  SharedBuffer buf;
  if (!buf.data_.resize(size))
    return Result<SharedBuffer>::err("shm: host refused the mapping");
  buf.pool_ = this;
  in_use_ += size;
  return buf;
}

}  // namespace watz::optee
