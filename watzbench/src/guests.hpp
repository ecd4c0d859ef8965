// Generated guest modules and their independent native references.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "polybench/suite.hpp"
#include "util.hpp"

namespace watzbench {

using watz::Bytes;

/// The interactive guest: add(a, b) -> a + b, and a Fig 3-style clock()
/// that calls WASI clock_time_get once and returns its errno.
Bytes tiny_guest();
/// The tiny guest plus an exported `id()` that returns `id`: one distinct
/// module (code and measurement) per id, for cold uploads.
Bytes tiny_guest(std::int32_t id);

/// Native counterparts of the tiny guest's entries: the wall time of one
/// call, best of many timed loops.
double native_add_ns();
double native_clock_ns();

/// A PolyBench kernel compiled by wcc with `pages` pages of linear memory.
Bytes kernel_binary(const watz::polybench::KernelDef& kernel, std::uint32_t pages);

/// An onboarding tenant's module: `kernel` with a seed-perturbed body
/// (dead seeded statements change the code but not the checksum), built
/// with Fig 5's 512 pages, then padded with Fig 4-style unrolled i64 code
/// in unexported functions until it is about `target_bytes` long.
Bytes tenant_module(const watz::polybench::KernelDef& kernel, Rng& rng,
                    std::size_t target_bytes);

/// The native C build's checksum at `n` (the reference every Wasm result
/// is checked against).
double native_checksum(const watz::polybench::KernelDef& kernel, int n);
/// Native wall time of one run at the kernel's own n, in ms. Workloads
/// time it on the client thread right after each INVOKE of the kernel, so
/// that the Wasm and the native time of a pair see the same host speed: on
/// a shared host, speed drifts by 10-20% over seconds to minutes, and a
/// reference timed apart from the Wasm runs moves the ratio with it.
double native_kernel_ms(const watz::polybench::KernelDef& kernel);

/// test_kernels' tolerance: relative 1e-9 against the native checksum.
bool checksum_matches(double wasm, double native);

}  // namespace watzbench
