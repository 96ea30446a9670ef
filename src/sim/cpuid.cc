#include "sim/cpuid.hh"

namespace rasim
{
namespace cpuid
{

namespace
{

enum class Override : int
{
    None,
    ForceOff,
    ForceOn,
};

Override host_override = Override::None;

bool
probeAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
simdCompiledIn()
{
#if defined(RASIM_SIMD_AVX2)
    return true;
#else
    return false;
#endif
}

bool
hostHasAvx2()
{
    if (host_override != Override::None)
        return host_override == Override::ForceOn;
    static const bool has = probeAvx2();
    return has;
}

SimdLevel
hostSimdLevel()
{
    return (simdCompiledIn() && hostHasAvx2()) ? SimdLevel::Avx2
                                               : SimdLevel::Scalar;
}

void
setHostOverrideForTest(bool has)
{
    host_override = has ? Override::ForceOn : Override::ForceOff;
}

void
clearHostOverrideForTest()
{
    host_override = Override::None;
}

} // namespace cpuid
} // namespace rasim
