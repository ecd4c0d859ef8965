// The trusted OS (OP-TEE 3.13 stand-in) running in the secure world.
//
// Owns: the secure heap (with the paper's 27 MB ceiling), the kernel-module
// registry (WaTZ adds its attestation service as one), the HUK subkey
// derivation rooted in the CAAM's secure-world MKVB, the supplicant RPC
// channel to the normal world, and the WaTZ kernel extensions (executable
// page allocation, nanosecond time passthrough).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/page_buffer.hpp"
#include "common/result.hpp"
#include "crypto/hmac.hpp"
#include "hw/caam.hpp"
#include "hw/latency.hpp"
#include "obs/metrics.hpp"
#include "optee/gp_api.hpp"
#include "optee/shared_memory.hpp"
#include "tz/secure_boot.hpp"

namespace watz::optee {

inline constexpr std::size_t kDefaultSecureHeapCap = 27 * 1024 * 1024;

/// Services the secure world obtains from the normal world through the
/// TEE supplicant daemon (SS V: sockets and, with the paper's driver
/// extension, the normal-world monotonic clock).
class Supplicant {
 public:
  virtual ~Supplicant() = default;
  virtual std::uint64_t monotonic_time_ns() = 0;
  virtual Result<std::uint32_t> socket_connect(const std::string& host,
                                               std::uint16_t port) = 0;
  virtual Result<Bytes> socket_send_recv(std::uint32_t handle, ByteView message) = 0;
  virtual void socket_close(std::uint32_t handle) = 0;
};

/// A loadable trusted-kernel module (the WaTZ attestation service is one).
class KernelModule {
 public:
  virtual ~KernelModule() = default;
  virtual const char* name() const = 0;
};

/// A secure-heap allocation handle. `executable` marks pages obtained via
/// the WaTZ mprotect-style kernel extension. The bytes are zero on demand
/// (PageBuffer): the heap is charged the full requested size, but the host
/// pays only for the pages actually touched.
class SecureAlloc {
 public:
  SecureAlloc() = default;
  SecureAlloc(SecureAlloc&&) noexcept;
  SecureAlloc& operator=(SecureAlloc&&) noexcept;
  SecureAlloc(const SecureAlloc&) = delete;
  SecureAlloc& operator=(const SecureAlloc&) = delete;
  ~SecureAlloc();

  bool valid() const noexcept { return os_ != nullptr; }
  bool executable() const noexcept { return executable_; }
  std::size_t size() const noexcept { return data_.size(); }
  std::uint8_t* data() noexcept { return data_.data(); }
  const std::uint8_t* data() const noexcept { return data_.data(); }
  ByteView view() const noexcept { return data_.view(); }

 private:
  friend class TrustedOs;
  class TrustedOs* os_ = nullptr;
  PageBuffer data_;
  bool executable_ = false;
};

struct TrustedOsConfig {
  std::size_t secure_heap_cap = kDefaultSecureHeapCap;
  std::size_t shared_memory_cap = kDefaultSharedMemoryCap;
  /// WaTZ kernel extensions: executable pages + deterministic key
  /// derivation + ns time. Off == stock OP-TEE 3.13 behaviour.
  bool watz_extensions = true;
  std::string version = "WaTZ/1.0 (OP-TEE 3.13)";
};

class TrustedOs {
 public:
  /// Boots the trusted OS: runs the secure-boot chain first; a failed chain
  /// means no trusted OS (and no access to the root of trust).
  static Result<std::unique_ptr<TrustedOs>> boot(const hw::Caam& caam,
                                                 const hw::EfuseBank& fuses,
                                                 const crypto::EcPoint& vendor_pub,
                                                 const std::vector<tz::BootImage>& chain,
                                                 hw::LatencyModel latency,
                                                 TrustedOsConfig config = {});

  const TrustedOsConfig& config() const noexcept { return config_; }
  const tz::BootReport& boot_report() const noexcept { return boot_report_; }
  const hw::LatencyModel& latency() const noexcept { return latency_; }
  SharedMemoryPool& shared_memory() noexcept { return shm_; }

  // -- secure heap -----------------------------------------------------------

  /// TEE_Malloc equivalent; fails beyond the 27 MB secure-heap ceiling.
  Result<SecureAlloc> allocate(std::size_t size);

  /// WaTZ extension (SS V): allocate pages that may hold AOT-compiled code.
  /// Stock OP-TEE cannot change page protections, so without the extension
  /// this returns TEE_ERROR_NOT_SUPPORTED semantics.
  Result<SecureAlloc> allocate_executable(std::size_t size);

  /// Atomic so fleet-level stats collectors may sample it from outside the
  /// device's owning worker thread while apps launch and retire.
  std::size_t heap_in_use() const noexcept {
    return static_cast<std::size_t>(heap_in_use_.get());
  }

  /// The heap gauge itself, for linking into an obs::Registry (the
  /// trusted OS stays the owner).
  const obs::Gauge& heap_gauge() const noexcept { return heap_in_use_; }

  /// Secure-heap accounting for native-tier code pages. The JIT maps its
  /// W^X images directly (they need PROT_EXEC, not SecureAlloc's byte
  /// store), but the bytes still count against the same 27 MB ceiling:
  /// try_charge_code reserves, release_code undoes. False means the
  /// reservation would overflow the cap — the function stays on the AOT
  /// stream.
  bool try_charge_code(std::size_t size) noexcept {
    return heap_in_use_.try_add_bounded(size, config_.secure_heap_cap);
  }
  void release_code(std::size_t size) noexcept { heap_in_use_.sub(size); }

  // -- root of trust ---------------------------------------------------------

  /// huk_subkey_derive: a usage-bound secret derived from the secure-world
  /// MKVB. Never exposes the MKVB itself; distinct usages give independent
  /// keys. Only meaningful inside the secure world.
  crypto::Sha256Digest huk_subkey_derive(std::string_view usage) const;

  // -- kernel modules ----------------------------------------------------------

  void register_module(std::shared_ptr<KernelModule> module);
  template <typename T>
  T* find_module(const std::string& name) const {
    const auto it = modules_.find(name);
    return it == modules_.end() ? nullptr : dynamic_cast<T*>(it->second.get());
  }

  // -- services ---------------------------------------------------------------

  void attach_supplicant(Supplicant* supplicant) noexcept { supplicant_ = supplicant; }
  Supplicant* supplicant() const noexcept { return supplicant_; }

  /// System time as seen from a TA. Routes through the normal world (the
  /// paper's driver extension) and charges the measured RPC latency of
  /// Fig 3a. Requires an attached supplicant.
  Result<TeeTime> get_system_time() const;

 private:
  friend class SecureAlloc;
  explicit TrustedOs(hw::LatencyModel latency, TrustedOsConfig config,
                     crypto::Sha256Digest mkvb_secure, tz::BootReport report)
      : latency_(std::move(latency)),
        config_(std::move(config)),
        mkvb_secure_(mkvb_secure),
        boot_report_(std::move(report)),
        shm_(config_.shared_memory_cap) {}

  void release(std::size_t size) noexcept { heap_in_use_.sub(size); }
  Result<SecureAlloc> allocate_impl(std::size_t size, bool executable);

  hw::LatencyModel latency_;
  TrustedOsConfig config_;
  crypto::Sha256Digest mkvb_secure_{};
  tz::BootReport boot_report_;
  SharedMemoryPool shm_;
  obs::Gauge heap_in_use_;
  std::unordered_map<std::string, std::shared_ptr<KernelModule>> modules_;
  Supplicant* supplicant_ = nullptr;
};

}  // namespace watz::optee
