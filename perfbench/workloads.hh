/**
 * @file
 * The benchmark's four workloads. Each one builds its simulated
 * system(s) only through public entry points (cosim::FullSystem,
 * QuantumBridge, noc::CycleNetwork, workload::TrafficGenerator,
 * ipc::NocServer / RemoteNetwork, FullSystem::saveTo /
 * restoreFromBytes), times every call into them from outside, and
 * checks the simulated outputs.
 */

#ifndef RASIM_PERFBENCH_WORKLOADS_HH
#define RASIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement window: whole rounds are run until it has passed. */
    double seconds = 10.0;
    /** Traced run: every round runs once untraced and once traced. */
    bool trace = false;
    /** Directory for the Unix socket and the Chrome trace file. */
    std::string out_dir = ".";
    /** Extra "key=value" config overrides (e.g. network.kernel=soa). */
    std::vector<std::string> overrides;
};

struct Metric
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, printed by an untraced run. */
extern const std::vector<Metric> kEndToEnd;
/** Every per-layer metric, printed by a traced run; one that has no
 *  layer to measure on a workload reads 0 there. */
extern const std::vector<Metric> kPerLayer;
/** Workload names, in BENCHMARK.json order. */
extern const std::vector<std::string> kWorkloads;

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed output check; empty means correct. */
    std::vector<std::string> failures;
    std::map<std::string, double> values;

    void check(bool ok, const std::string &what);
};

/** Run one workload for the configured window. */
Report runWorkload(const RunOptions &opts);

/** Heap allocations so far (counting allocator in main.cc). */
std::uint64_t allocationCount();

} // namespace perfbench

#endif // RASIM_PERFBENCH_WORKLOADS_HH
