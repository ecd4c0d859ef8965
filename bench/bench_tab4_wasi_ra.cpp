// Table IV — end-to-end execution time of the WASI-RA API, attester and
// verifier co-located (as in the paper). Paper: handshake 1.34 s,
// collect_quote 239 ms, send_quote 1 ms, receive_data 168 ms (0.1 MB) to
// 209 ms (1 MB); handshake dominated by key generation and asymmetric ops.
#include "bench/harness.hpp"
#include "ann/dataset.hpp"
#include "core/guest_builder.hpp"
#include "core/verifier_host.hpp"
#include "crypto/fortuna.hpp"
#include "ra/attester.hpp"

int main() {
  using namespace watz;

  net::Fabric fabric;
  const core::Vendor vendor = core::Vendor::create(to_bytes("tab4-vendor"));
  // Paper: attester and verifier run on the same development board.
  auto board = bench::boot_device(fabric, vendor, "board", 0x71);

  crypto::Fortuna rng(to_bytes("tab4-rng"));
  core::VerifierHost verifier(*board, rng);
  verifier.listen(4433).check();

  const Bytes app = core::build_attester_app(verifier.identity(), "board", 4433);
  const auto claim = crypto::sha256(app);
  verifier.verifier().endorse_device(board->attestation_service().public_key());
  verifier.verifier().add_reference_measurement(claim);

  Bytes secret;  // swapped per row below
  verifier.verifier().set_secret_provider(
      [&secret](const crypto::Sha256Digest&) { return secret; });

  std::printf("=== Table IV: WASI-RA end-to-end times ===\n");

  // Phase-level timing through the runtime's own supplicant/socket path.
  optee::Supplicant& supplicant = board->supplicant();
  const auto& service = board->attestation_service();

  for (const std::size_t size : {std::size_t{100} * 1024, std::size_t{1024} * 1024}) {
    secret = ann::encode_dataset(
        ann::replicate_to_size(ann::make_iris_like(150), size));

    ra::AttesterSession session(rng, verifier.identity());
    auto conn = supplicant.socket_connect("board", 4433);
    conn.ok() ? void() : throw Error(conn.error());

    // handshake: msg0 out, msg1 in, msg1 processed (keys derived).
    Bytes msg1;
    const std::uint64_t handshake_ns = bench::time_ns([&] {
      auto reply = supplicant.socket_send_recv(*conn, session.make_msg0());
      reply.ok() ? void() : throw Error(reply.error());
      msg1 = std::move(*reply);
      session.process_msg1(msg1).check();
    });

    // collect_quote: evidence generation in the attestation service.
    attestation::Evidence evidence;
    const std::uint64_t collect_ns = bench::time_ns(
        [&] { evidence = service.issue_evidence(session.anchor(), claim); });

    // send_quote: msg2 assembly + round trip; the reply (msg3) is produced
    // only after the verifier finishes appraising the evidence, which is
    // why the paper sees the verifier's asymmetric cost on this path.
    Bytes msg3;
    const std::uint64_t send_ns = bench::time_ns([&] {
      auto msg2 = session.make_msg2(evidence);
      msg2.ok() ? void() : throw Error(msg2.error());
      auto reply = supplicant.socket_send_recv(*conn, *msg2);
      reply.ok() ? void() : throw Error(reply.error());
      msg3 = std::move(*reply);
    });

    // receive_data: decrypt + authenticate the secret blob.
    Bytes blob;
    const std::uint64_t receive_ns = bench::time_ns([&] {
      auto opened = session.handle_msg3(msg3);
      opened.ok() ? void() : throw Error(opened.error());
      blob = std::move(*opened);
    });
    supplicant.socket_close(*conn);

    const std::uint64_t total =
        handshake_ns + collect_ns + send_ns + receive_ns;
    std::printf("\n  secret blob: %.1f MB (received %zu bytes)\n",
                static_cast<double>(size) / (1024.0 * 1024.0), blob.size());
    std::printf("    handshake    : %10.2f ms (paper: 1340 ms)\n", bench::ms(handshake_ns));
    std::printf("    collect_quote: %10.2f ms (paper:  239 ms)\n", bench::ms(collect_ns));
    std::printf("    send_quote   : %10.2f ms (paper: ~1 ms + verifier appraisal)\n",
                bench::ms(send_ns));
    std::printf("    receive_data : %10.2f ms (paper: 168-209 ms)\n", bench::ms(receive_ns));
    std::printf("    total        : %10.2f ms (paper: 1.75-1.79 s)\n", bench::ms(total));
    // Which phase dominates depends on the crypto library's relative
    // speeds: on the paper's A53 + LibTomCrypt, P-256 ops (~240 ms) dwarf
    // AES-GCM, so the handshake wins; our scalar AES-GCM is the slower
    // primitive, so the blob-size-dependent phases win at 1 MB. The
    // structural claim that survives: fixed-size phases are constant,
    // receive_data grows linearly with the blob.
    const char* dominant = "handshake";
    std::uint64_t max_ns = handshake_ns;
    if (send_ns > max_ns) { dominant = "send_quote(+appraisal)"; max_ns = send_ns; }
    if (receive_ns > max_ns) { dominant = "receive_data"; max_ns = receive_ns; }
    if (collect_ns > max_ns) { dominant = "collect_quote"; }
    std::printf("    dominant phase on this host: %s (paper: handshake)\n", dominant);
  }

  // Full in-sandbox flow through the actual WASI-RA host functions.
  core::AppConfig config;
  config.heap_bytes = 14 << 20;  // paper: 14 MB attester TA heap
  secret = ann::encode_dataset(ann::replicate_to_size(ann::make_iris_like(150), 100 * 1024));
  auto loaded = board->runtime().launch(app, config);
  loaded.ok() ? void() : throw Error(loaded.error());
  const std::uint64_t guest_total = bench::time_ns([&] {
    auto r = (*loaded)->invoke("attest", {});
    r.ok() ? void() : throw Error(r.error());
    if (r->front().i32() < 0) throw Error("guest attestation failed");
  });
  std::printf("\n  full WASI-RA flow from inside the Wasm sandbox (0.1 MB): %.2f ms\n",
              bench::ms(guest_total));
  return 0;
}
