#include "noc/kernel/backend.hh"

#include <atomic>

#include "noc/kernel/soa_cycle.hh"
#include "noc/kernel/soa_deflect.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

namespace
{

std::atomic<const FabricFactory *> test_factory{nullptr};

} // namespace

std::unique_ptr<CycleFabric>
makeCycleFabric(stats::Group *parent, const NocParams &params,
                const Topology &topo, const RoutingAlgorithm &routing)
{
    if (const FabricFactory *f =
            test_factory.load(std::memory_order_acquire))
        return f->cycle(parent, params, topo, routing);
    return std::make_unique<SoaCycleFabric>(parent, params, topo,
                                            routing);
}

std::unique_ptr<DeflectFabric>
makeDeflectFabric(const NocParams &params, const Topology &topo)
{
    if (const FabricFactory *f =
            test_factory.load(std::memory_order_acquire))
        return f->deflect(params, topo);
    return std::make_unique<SoaDeflectFabric>(params, topo);
}

void
setFabricFactoryForTest(const FabricFactory *factory)
{
    test_factory.store(factory, std::memory_order_release);
}

} // namespace kernel
} // namespace noc
} // namespace rasim
