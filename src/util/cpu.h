// CPU feature probing for runtime kernel dispatch.
//
// The SIFT block kernels ship as a portable scalar build plus AVX2 and
// AVX-512 builds compiled with per-function target attributes, and
// sift_kernel::Resolve picks between them at runtime.  These probes
// answer "may this flavor execute on this machine?" once, at first use,
// so hot loops never pay for cpuid.  A binary built with -mavx2 or
// -mavx512f (or for a non-x86 target) gets the answer as a constant.
#pragma once

namespace whitefi {

/// True when AVX2 instructions may be executed on this host.  Constant
/// true under -mavx2 builds, constant false on non-x86 targets, a cached
/// cpuid probe otherwise.
bool CpuSupportsAvx2();

/// True when AVX-512F instructions may be executed on this host (the
/// 512-bit SIFT kernel needs only the foundation subset).  Same layering
/// as CpuSupportsAvx2.
bool CpuSupportsAvx512();

}  // namespace whitefi
