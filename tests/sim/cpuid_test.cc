/**
 * @file
 * SIMD dispatch tests. The host override hook lets every path run on
 * any build host: AVX2 when it is compiled in and the host has it,
 * scalar otherwise, and real detection back once the override is
 * cleared.
 */

#include <gtest/gtest.h>

#include "sim/cpuid.hh"

namespace
{

using namespace rasim;
using cpuid::SimdLevel;

/** RAII guard so a failing assertion cannot leak the override into
 *  later tests. */
struct HostOverride
{
    explicit HostOverride(bool has)
    {
        cpuid::setHostOverrideForTest(has);
    }
    ~HostOverride() { cpuid::clearHostOverrideForTest(); }
};

TEST(Cpuid, LevelNames)
{
    EXPECT_STREQ(cpuid::simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(cpuid::simdLevelName(SimdLevel::Avx2), "avx2");
}

TEST(Cpuid, AutoPicksAvx2WhenAvailable)
{
    HostOverride host(true);
    SimdLevel want = cpuid::simdCompiledIn() ? SimdLevel::Avx2
                                             : SimdLevel::Scalar;
    EXPECT_EQ(cpuid::hostSimdLevel(), want);
}

TEST(Cpuid, AutoFallsBackToScalarWithoutHostSupport)
{
    // A pre-AVX2 host silently runs scalar: the scalar kernel is
    // bit-identical, so there is nothing to warn about.
    HostOverride host(false);
    EXPECT_EQ(cpuid::hostSimdLevel(), SimdLevel::Scalar);
}

TEST(Cpuid, ClearingTheOverrideRestoresDetection)
{
    const SimdLevel detected = cpuid::hostSimdLevel();
    {
        HostOverride host(!cpuid::hostHasAvx2());
    }
    EXPECT_EQ(cpuid::hostSimdLevel(), detected);
}

} // namespace
