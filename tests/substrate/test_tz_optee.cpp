#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/fortuna.hpp"
#include "optee/ta_manager.hpp"
#include "optee/trusted_os.hpp"
#include "tz/monitor.hpp"
#include "tz/secure_boot.hpp"

namespace watz {
namespace {

struct Vendor {
  crypto::KeyPair key;
  hw::EfuseBank fuses;

  static Vendor make() {
    crypto::Fortuna rng(to_bytes("vendor"));
    Vendor v{crypto::ecdsa_keygen(rng), {}};
    const auto digest = crypto::sha256(v.key.pub.encode_uncompressed());
    v.fuses.program_digest(digest).check();
    return v;
  }
};

std::vector<tz::BootImage> make_chain(const Vendor& vendor) {
  std::vector<tz::BootImage> chain = {
      {"spl", to_bytes("second stage bootloader image"), {}},
      {"u-boot+atf", to_bytes("u-boot 2020.10 / arm trusted firmware 2.3"), {}},
      {"optee-os", to_bytes("op-tee 3.13 with watz extensions"), {}},
  };
  for (auto& image : chain) tz::sign_image(image, vendor.key.priv);
  return chain;
}

TEST(SecureBoot, GenuineChainBoots) {
  const Vendor vendor = Vendor::make();
  auto report = tz::secure_boot(vendor.fuses, vendor.key.pub, make_chain(vendor));
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report->measurements.size(), 3u);
  EXPECT_EQ(report->stage_names[2], "optee-os");
}

TEST(SecureBoot, TamperedStageAborts) {
  const Vendor vendor = Vendor::make();
  auto chain = make_chain(vendor);
  chain[2].payload[0] ^= 1;  // compromised trusted OS image
  auto report = tz::secure_boot(vendor.fuses, vendor.key.pub, chain);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().find("optee-os"), std::string::npos);
}

TEST(SecureBoot, WrongVendorKeyRejectedByRom) {
  const Vendor vendor = Vendor::make();
  crypto::Fortuna rng(to_bytes("attacker"));
  const auto attacker = crypto::ecdsa_keygen(rng);
  auto chain = make_chain(vendor);
  // Attacker re-signs everything with their own key, presents their key.
  for (auto& image : chain) tz::sign_image(image, attacker.priv);
  auto report = tz::secure_boot(vendor.fuses, attacker.pub, chain);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().find("eFuses"), std::string::npos);
}

TEST(SecureBoot, EmptyChainRejected) {
  const Vendor vendor = Vendor::make();
  EXPECT_FALSE(tz::secure_boot(vendor.fuses, vendor.key.pub, {}).ok());
}

TEST(Monitor, ChargesAndCountsTransitions) {
  tz::SecureMonitor monitor{hw::LatencyModel::disabled()};
  EXPECT_EQ(monitor.state(), hw::SecurityState::Normal);
  const int x = monitor.smc_call([&] {
    EXPECT_EQ(monitor.state(), hw::SecurityState::Secure);
    return 42;
  });
  EXPECT_EQ(x, 42);
  EXPECT_EQ(monitor.state(), hw::SecurityState::Normal);
  EXPECT_EQ(monitor.enter_count(), 1u);
  EXPECT_EQ(monitor.leave_count(), 1u);
}

TEST(Monitor, NestedCallsDoNotRecross) {
  tz::SecureMonitor monitor{hw::LatencyModel::disabled()};
  monitor.smc_call([&] {
    monitor.smc_call([&] { return 0; });
    return 0;
  });
  EXPECT_EQ(monitor.enter_count(), 1u);
}

class TrustedOsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    vendor_ = Vendor::make();
    crypto::Fortuna rng(to_bytes("device"));
    caam_ = std::make_unique<hw::Caam>(rng);
    auto os = optee::TrustedOs::boot(*caam_, vendor_.fuses, vendor_.key.pub,
                                     make_chain(vendor_), hw::LatencyModel::disabled());
    ASSERT_TRUE(os.ok()) << os.error();
    os_ = std::move(*os);
  }

  Vendor vendor_;
  std::unique_ptr<hw::Caam> caam_;
  std::unique_ptr<optee::TrustedOs> os_;
};

TEST_F(TrustedOsTest, RefusesToBootTamperedImage) {
  auto chain = make_chain(vendor_);
  chain[0].payload.push_back(0xff);
  auto os = optee::TrustedOs::boot(*caam_, vendor_.fuses, vendor_.key.pub, chain,
                                   hw::LatencyModel::disabled());
  EXPECT_FALSE(os.ok());
}

TEST_F(TrustedOsTest, SecureHeapCapEnforced) {
  auto big = os_->allocate(20 * 1024 * 1024);
  ASSERT_TRUE(big.ok()) << big.error();
  EXPECT_EQ(os_->heap_in_use(), 20u * 1024 * 1024);
  auto too_much = os_->allocate(10 * 1024 * 1024);  // 30 MB total > 27 MB cap
  EXPECT_FALSE(too_much.ok());
  EXPECT_NE(too_much.error().find("27 MB"), std::string::npos);
  // Releasing returns budget.
  big = optee::SecureAlloc{};
  EXPECT_EQ(os_->heap_in_use(), 0u);
  EXPECT_TRUE(os_->allocate(10 * 1024 * 1024).ok());
}

TEST_F(TrustedOsTest, AllocationsReadZeroAndAreChargedByRequestedSize) {
  // Zero on demand: nothing is touched at allocation, yet every byte reads
  // zero, and the caps charge the size asked for, not the pages mapped.
  const std::size_t odd = 3 * 4096 + 17;
  auto heap = os_->allocate(odd);
  ASSERT_TRUE(heap.ok()) << heap.error();
  EXPECT_EQ(heap->size(), odd);
  EXPECT_EQ(os_->heap_in_use(), odd);
  auto shared = os_->shared_memory().allocate(odd);
  ASSERT_TRUE(shared.ok()) << shared.error();
  EXPECT_EQ(os_->shared_memory().in_use(), odd);
  for (const ByteView bytes : {heap->view(), shared->view()}) {
    ASSERT_EQ(bytes.size(), odd);
    EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(), [](std::uint8_t v) { return v == 0; }));
  }
  heap->data()[odd - 1] = 0xff;  // the last requested byte is writable
  *heap = optee::SecureAlloc{};
  *shared = optee::SharedBuffer{};
  EXPECT_EQ(os_->heap_in_use(), 0u);
  EXPECT_EQ(os_->shared_memory().in_use(), 0u);
}

TEST_F(TrustedOsTest, SharedMemoryCapEnforced) {
  auto a = os_->shared_memory().allocate(8 * 1024 * 1024);
  ASSERT_TRUE(a.ok());
  auto b = os_->shared_memory().allocate(2 * 1024 * 1024);  // 10 MB > 9 MB cap
  EXPECT_FALSE(b.ok());
}

TEST_F(TrustedOsTest, ExecutablePagesNeedWatzExtension) {
  auto exec = os_->allocate_executable(4096);
  ASSERT_TRUE(exec.ok()) << exec.error();
  EXPECT_TRUE(exec->executable());

  // Stock OP-TEE: the extension is off.
  optee::TrustedOsConfig stock;
  stock.watz_extensions = false;
  auto os2 = optee::TrustedOs::boot(*caam_, vendor_.fuses, vendor_.key.pub,
                                    make_chain(vendor_), hw::LatencyModel::disabled(),
                                    stock);
  ASSERT_TRUE(os2.ok());
  auto denied = (*os2)->allocate_executable(4096);
  EXPECT_FALSE(denied.ok());
  EXPECT_NE(denied.error().find("NOT_SUPPORTED"), std::string::npos);
}

TEST_F(TrustedOsTest, HukSubkeysAreUsageBoundAndStable) {
  const auto a1 = os_->huk_subkey_derive("usage-a");
  const auto a2 = os_->huk_subkey_derive("usage-a");
  const auto b = os_->huk_subkey_derive("usage-b");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST_F(TrustedOsTest, HukSubkeyStableAcrossReboots) {
  const auto before = os_->huk_subkey_derive("watz-attestation-key-v1");
  auto os2 = optee::TrustedOs::boot(*caam_, vendor_.fuses, vendor_.key.pub,
                                    make_chain(vendor_), hw::LatencyModel::disabled());
  ASSERT_TRUE(os2.ok());
  EXPECT_EQ((*os2)->huk_subkey_derive("watz-attestation-key-v1"), before);
}

TEST_F(TrustedOsTest, TimeRequiresSupplicant) {
  EXPECT_FALSE(os_->get_system_time().ok());
}

TEST(TaManager, EnforcesSignaturePolicy) {
  crypto::Fortuna rng(to_bytes("vendor2"));
  const auto vendor = crypto::ecdsa_keygen(rng);
  optee::TaManager manager(vendor.pub);

  optee::TaImage ta{"8aaaf200-2450-11e4-abe2-0002a5d5c51b", to_bytes("watz runtime ta"), {}};
  optee::sign_ta(ta, vendor.priv);
  auto installed = manager.install(ta);
  ASSERT_TRUE(installed.ok()) << installed.error();

  // Unsigned TA rejected.
  optee::TaImage unsigned_ta{"11111111-0000-0000-0000-000000000001", to_bytes("mallory"), {}};
  EXPECT_FALSE(manager.install(unsigned_ta).ok());

  // Tampered payload rejected.
  optee::TaImage tampered = ta;
  tampered.uuid = "22222222-0000-0000-0000-000000000002";
  EXPECT_FALSE(manager.install(tampered).ok());

  // UUID impersonation rejected.
  optee::TaImage clone{ta.uuid, to_bytes("impersonator"), {}};
  optee::sign_ta(clone, vendor.priv);
  EXPECT_FALSE(manager.install(clone).ok());
}

}  // namespace
}  // namespace watz
