#include "optee/trusted_os.hpp"

namespace watz::optee {

SecureAlloc::SecureAlloc(SecureAlloc&& other) noexcept { *this = std::move(other); }

SecureAlloc& SecureAlloc::operator=(SecureAlloc&& other) noexcept {
  if (this != &other) {
    if (os_ != nullptr) os_->release(data_.size());
    os_ = other.os_;
    data_ = std::move(other.data_);
    executable_ = other.executable_;
    other.os_ = nullptr;
  }
  return *this;
}

SecureAlloc::~SecureAlloc() {
  if (os_ != nullptr) os_->release(data_.size());
}

Result<std::unique_ptr<TrustedOs>> TrustedOs::boot(
    const hw::Caam& caam, const hw::EfuseBank& fuses, const crypto::EcPoint& vendor_pub,
    const std::vector<tz::BootImage>& chain, hw::LatencyModel latency,
    TrustedOsConfig config) {
  auto report = tz::secure_boot(fuses, vendor_pub, chain);
  if (!report.ok())
    return Result<std::unique_ptr<TrustedOs>>::err("trusted OS refused to boot: " +
                                                   report.error());
  // Only a successfully booted secure world may query the CAAM for the
  // secure MKVB — the chain of trust protects the attestation keys (SS IV).
  const auto mkvb = caam.mkvb(hw::SecurityState::Secure);
  auto os = std::unique_ptr<TrustedOs>(
      new TrustedOs(std::move(latency), std::move(config), mkvb, std::move(*report)));
  return os;
}

Result<SecureAlloc> TrustedOs::allocate_impl(std::size_t size, bool executable) {
  if (size == 0) return Result<SecureAlloc>::err("TEE_Malloc: zero size");
  // Bounded reservation (a CAS loop inside the gauge): sandbox slots
  // allocate concurrently, and a check-then-add pair would let two racing
  // reservations overshoot the 27 MB ceiling that the whole budget
  // accounting hangs off.
  if (!heap_in_use_.try_add_bounded(size, config_.secure_heap_cap))
    return Result<SecureAlloc>::err(
        "TEE_ERROR_OUT_OF_MEMORY: secure heap cap exceeded (27 MB OP-TEE limit)");
  SecureAlloc alloc;
  if (!alloc.data_.resize(size)) {
    heap_in_use_.sub(size);
    return Result<SecureAlloc>::err("TEE_ERROR_OUT_OF_MEMORY: host refused the mapping");
  }
  alloc.os_ = this;
  alloc.executable_ = executable;
  return alloc;
}

Result<SecureAlloc> TrustedOs::allocate(std::size_t size) {
  return allocate_impl(size, false);
}

Result<SecureAlloc> TrustedOs::allocate_executable(std::size_t size) {
  if (!config_.watz_extensions)
    return Result<SecureAlloc>::err(
        "TEE_ERROR_NOT_SUPPORTED: stock OP-TEE cannot mark heap pages executable "
        "(github.com/OP-TEE/optee_os issue #4396); enable the WaTZ kernel extension");
  return allocate_impl(size, true);
}

crypto::Sha256Digest TrustedOs::huk_subkey_derive(std::string_view usage) const {
  return crypto::hmac_sha256(
      mkvb_secure_,
      ByteView(reinterpret_cast<const std::uint8_t*>(usage.data()), usage.size()));
}

void TrustedOs::register_module(std::shared_ptr<KernelModule> module) {
  modules_[module->name()] = std::move(module);
}

Result<TeeTime> TrustedOs::get_system_time() const {
  if (supplicant_ == nullptr)
    return Result<TeeTime>::err("get_system_time: no supplicant attached");
  // The query crosses to the normal world and back (Fig 3a: ~10 us).
  latency_.charge_time_rpc();
  return TeeTime::from_ns(supplicant_->monotonic_time_ns());
}

}  // namespace watz::optee
