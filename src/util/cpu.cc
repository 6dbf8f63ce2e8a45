#include "util/cpu.h"

namespace whitefi {

bool CpuSupportsAvx2() {
#if defined(__AVX2__)
  // Compiled with -mavx2: the whole binary assumes AVX2 anyway.
  return true;
#elif defined(__x86_64__) || defined(__i386__)
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(__AVX512F__)
  return true;
#elif defined(__x86_64__) || defined(__i386__)
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported;
#else
  return false;
#endif
}

}  // namespace whitefi
