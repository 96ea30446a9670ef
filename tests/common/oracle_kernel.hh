/**
 * @file
 * Runs the NoC oracle in place of the production SoA kernel. While an
 * OracleKernel guard lives, every CycleNetwork and DeflectionNetwork
 * built in the process — FullSystem's, an in-process server session's
 * — steps the per-object Router/Nic/Link fabrics of tests/noc/oracle.
 * The object-vs-soa differentials build one run inside a guard and one
 * outside and compare deliveries, stats and checkpoint bytes.
 *
 * Binaries using it link rasim_noc_oracle.
 */

#ifndef RASIM_TESTS_COMMON_ORACLE_KERNEL_HH
#define RASIM_TESTS_COMMON_ORACLE_KERNEL_HH

#include <memory>

#include "noc/kernel/backend.hh"
#include "noc/oracle/object_cycle.hh"
#include "noc/oracle/object_deflect.hh"

namespace rasim
{
namespace test
{

class OracleKernel
{
  public:
    /** Install the oracle when @p enable is set (a no-op guard
     *  otherwise, so one code path runs either kernel: pass
     *  `kernel == "object"`). */
    explicit OracleKernel(bool enable = true) : enabled_(enable)
    {
        if (enabled_)
            noc::kernel::setFabricFactoryForTest(factory());
    }

    /** A kernel name would silently convert to `true`. */
    explicit OracleKernel(const char *) = delete;

    ~OracleKernel()
    {
        if (enabled_)
            noc::kernel::setFabricFactoryForTest(nullptr);
    }

    OracleKernel(const OracleKernel &) = delete;
    OracleKernel &operator=(const OracleKernel &) = delete;

  private:
    static std::unique_ptr<noc::kernel::CycleFabric>
    cycle(stats::Group *parent, const noc::NocParams &params,
          const noc::Topology &topo, const noc::RoutingAlgorithm &routing)
    {
        return std::make_unique<noc::kernel::ObjectCycleFabric>(
            parent, params, topo, routing);
    }

    static std::unique_ptr<noc::kernel::DeflectFabric>
    deflect(const noc::NocParams &params, const noc::Topology &topo)
    {
        return std::make_unique<noc::kernel::ObjectDeflectFabric>(params,
                                                                  topo);
    }

    static const noc::kernel::FabricFactory *
    factory()
    {
        static const noc::kernel::FabricFactory f{&cycle, &deflect};
        return &f;
    }

    bool enabled_;
};

} // namespace test
} // namespace rasim

#endif // RASIM_TESTS_COMMON_ORACLE_KERNEL_HH
