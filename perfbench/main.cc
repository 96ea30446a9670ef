/**
 * @file
 * rasim-perfbench: runs one benchmark workload in this process and
 * prints, as the last line of standard output, one JSON object with
 * the keys correct, attempted, failed and metrics.
 *
 *   rasim-perfbench --workload <name> [--seed N] [--seconds S]
 *                   [--trace 0|1] [--out-dir DIR] [key=value ...]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (and writes DIR/trace-<workload>-seed<N>.json). key=value pairs
 * are config overrides applied on top of the workload's own keys, e.g.
 * network.kernel=soa.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>

#include "workloads.hh"

// ---------------------------------------------------------------------
// Counting global allocator (this binary only): alloc.per_quantum.
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

std::uint64_t
perfbench::allocationCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "rasim-perfbench: %s\nusage: rasim-perfbench --workload "
                 "<name> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out-dir DIR] [key=value ...]\nworkloads:",
                 why);
    for (const std::string &w : perfbench::kWorkloads)
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--workload" && (v = value()))
            o.workload = v;
        else if (a == "--seed" && (v = value()))
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds" && (v = value()))
            o.seconds = std::strtod(v, nullptr);
        else if (a == "--trace" && (v = value()))
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--out-dir" && (v = value()))
            o.out_dir = v;
        else if (a.find('=') != std::string::npos && a.rfind("--", 0) != 0)
            o.overrides.push_back(a);
        else
            return usage(("bad argument '" + a + "'").c_str());
    }
    if (o.workload.empty())
        return usage("--workload is required");
    if (!(o.seconds > 0.0))
        return usage("--seconds must be positive");

    perfbench::Report rep;
    try {
        rep = perfbench::runWorkload(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rasim-perfbench: %s\n", e.what());
        return 1;
    }

    const auto &metrics = o.trace ? perfbench::kPerLayer
                                  : perfbench::kEndToEnd;
    for (const perfbench::Metric &m : metrics) {
        auto it = rep.values.find(m.name);
        rep.check(it == rep.values.end() || std::isfinite(it->second),
                  std::string("metric ") + m.name + " is not finite");
    }
    for (const std::string &f : rep.failures)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                rep.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        auto it = rep.values.find(metrics[i].name);
        double value = it == rep.values.end() || !std::isfinite(it->second)
                           ? 0.0
                           : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}
