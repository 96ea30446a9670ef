/**
 * @file
 * Runtime CPU-feature detection for the SIMD kernel dispatch. The
 * structure-of-arrays NoC kernel ships a scalar implementation plus an
 * AVX2 specialization compiled behind the RASIM_SIMD build switch;
 * this helper decides which one a run uses.
 *
 * There is no user-facing choice: the kernel runs AVX2 when it is
 * compiled in and the CPU executes it, and scalar otherwise. The two
 * paths are bit-identical by construction, so the choice can only
 * change speed. Tests force the scalar path with
 * setHostOverrideForTest(false).
 */

#ifndef RASIM_SIM_CPUID_HH
#define RASIM_SIM_CPUID_HH

namespace rasim
{
namespace cpuid
{

enum class SimdLevel
{
    Scalar,
    Avx2,
};

/** Short lower-case name for logs, stats and bench JSON. */
const char *simdLevelName(SimdLevel level);

/** True when the AVX2 kernel translation unit was compiled in
 *  (-DRASIM_SIMD=on on an x86-64 toolchain). */
bool simdCompiledIn();

/** Runtime probe: does this CPU execute AVX2? Cached after the first
 *  call; honours the test override below. */
bool hostHasAvx2();

/** The level a kernel built now runs: Avx2 when simdCompiledIn()
 *  and hostHasAvx2(), else Scalar. */
SimdLevel hostSimdLevel();

/**
 * Test hook: force hostHasAvx2() to return @p has regardless of the
 * real CPU, so tests can run the scalar path on an AVX2 host (and the
 * dispatch logic both ways on any host). Call
 * clearHostOverrideForTest() to restore real detection.
 */
void setHostOverrideForTest(bool has);
void clearHostOverrideForTest();

} // namespace cpuid
} // namespace rasim

#endif // RASIM_SIM_CPUID_HH
