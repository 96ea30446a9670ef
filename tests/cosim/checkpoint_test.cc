/**
 * @file
 * Crash-safe checkpoint/restore of the full co-simulation, proven by
 * differential runs: simulating N quanta straight must be
 * bit-identical to simulating k quanta, archiving the whole system,
 * restoring into a freshly constructed process object and simulating
 * the remaining N-k quanta — same delivered-packet trace, same finish
 * tick, same rendered statistics, same tuned latency table — across
 * couplings, engines and with deterministic fault injection active.
 * Plus the crash-safety half: atomic on-disk images, rotation, and
 * fallback past corrupt or mismatched images at boot.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/expect_error.hh"

#include "cosim/full_system.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

constexpr Tick run_limit = 4000000;

/** One backend delivery seen by the bridge observer, every field a
 *  resumed run could disturb. */
struct Delivery
{
    PacketId id;
    Tick deliver_tick;
    Tick latency;
    std::uint32_t hops;
    std::uint64_t context;

    bool
    operator==(const Delivery &o) const
    {
        return id == o.id && deliver_tick == o.deliver_tick &&
               latency == o.latency && hops == o.hops &&
               context == o.context;
    }
};

void
snapshotStats(const stats::Group &g,
              std::vector<std::tuple<std::string, std::string, double>>
                  &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

// gtest lists a parameter without operator<< as its raw bytes, and
// ctest names the discovered tests after that listing. The name goes
// last so the listing opens with fixed fields, not with the string's
// heap pointer, whose bytes differ from one process to the next.
struct Scenario
{
    Mode mode = Mode::CosimCycle;
    bool conservative = false;
    bool parallel = false;
    bool drop = false;   ///< fault: drop every 9th packet
    bool delay = false;  ///< fault: delay every 5th packet
    bool poison = false; ///< fault: poison every 11th delivery
    std::string name;
};

FullSystemOptions
scenarioOptions(const Scenario &s)
{
    FullSystemOptions o;
    o.mode = s.mode;
    o.app = "lu";
    o.ops_per_core = 60;
    o.quantum = 64;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    o.conservative = s.conservative;
    o.parallel = s.parallel;
    o.engine_workers = 2;
    // Wall-clock guards (worker_timeout_ms, fault.hang_*) are the one
    // thing outside the bit-identical contract; everything else runs.
    o.health.recovery_quanta = 4;
    o.health.probation_quanta = 2;
    o.health.checkpoint_quanta = 4;
    o.fault.enabled = s.drop || s.delay || s.poison;
    if (s.drop)
        o.fault.drop_every = 9;
    if (s.delay) {
        o.fault.delay_every = 5;
        o.fault.delay_cycles = 48;
    }
    if (s.poison)
        o.fault.poison_every = 11;
    return o;
}

struct Trace
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    Tick finish = 0;
};

void
observe(FullSystem &sys, Trace &trace)
{
    sys.bridge().setDeliveryObserver([&trace](const noc::PacketPtr &p) {
        trace.deliveries.push_back({p->id, p->deliver_tick,
                                    p->latency(), p->hops, p->context});
    });
}

void
finishTrace(FullSystem &sys, Trace &trace)
{
    snapshotStats(sys.simulation().statsRoot(), trace.stats);
}

void
expectIdentical(const Trace &ref, const Trace &got)
{
    EXPECT_EQ(got.finish, ref.finish);
    ASSERT_EQ(got.deliveries.size(), ref.deliveries.size());
    for (std::size_t k = 0; k < ref.deliveries.size(); ++k)
        ASSERT_TRUE(got.deliveries[k] == ref.deliveries[k])
            << "delivery #" << k << " packet " << ref.deliveries[k].id;
    ASSERT_EQ(got.stats.size(), ref.stats.size());
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << "stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
}

class CheckpointDifferential : public testing::TestWithParam<Scenario>
{
};

TEST_P(CheckpointDifferential, ResumeIsBitIdentical)
{
    const FullSystemOptions opts = scenarioOptions(GetParam());

    // Reference: the whole run, uninterrupted. Kept alive so the
    // resumed system's tuned table can be compared field by field.
    FullSystem ref_sys(Config(), opts);
    Trace ref;
    observe(ref_sys, ref);
    ref.finish = ref_sys.run(run_limit);
    EXPECT_TRUE(ref_sys.allCoresDone());
    finishTrace(ref_sys, ref);
    // Run-loop boundaries the reference crossed (the bridge's own
    // quantum is 1 in the event-exact modes, so quantaRun() is the
    // wrong unit here).
    std::uint64_t total_quanta =
        ref_sys.simulation().curTick() / opts.quantum;
    ASSERT_GE(total_quanta, 4u);

    // Interrupted: k quanta, archive, throw the process state away.
    std::uint64_t k = total_quanta / 2;
    Trace resumed;
    std::string image;
    {
        FullSystem sys(Config(), opts);
        observe(sys, resumed);
        sys.run(k * opts.quantum);
        EXPECT_EQ(sys.simulation().curTick(), k * opts.quantum);
        EXPECT_FALSE(sys.allCoresDone());
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }

    // Resumed: a fresh process object, state only from the archive.
    FullSystem sys(Config(), opts);
    observe(sys, resumed);
    std::string why;
    ASSERT_TRUE(sys.restoreFromBytes(image, &why)) << why;
    EXPECT_EQ(sys.simulation().curTick(), k * opts.quantum);
    resumed.finish = sys.run(run_limit);
    EXPECT_TRUE(sys.allCoresDone());
    finishTrace(sys, resumed);

    expectIdentical(ref, resumed);
    EXPECT_TRUE(
        sys.bridge().table().identicalTo(ref_sys.bridge().table()));
    EXPECT_EQ(sys.bridge().healthState(), ref_sys.bridge().healthState());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, CheckpointDifferential,
    testing::Values(
        Scenario{Mode::CosimCycle, false, false, false, false, false,
                 "reciprocal_serial"},
        Scenario{Mode::CosimCycle, true, false, false, false, false,
                 "conservative_serial"},
        Scenario{Mode::CosimCycle, false, true, false, true, true,
                 "reciprocal_parallel_faults"},
        Scenario{Mode::CosimCycle, true, false, true, false, false,
                 "conservative_degrades"},
        Scenario{Mode::CosimGpu, false, false, false, true, false,
                 "overlapped_gpu_faults"},
        Scenario{Mode::Monolithic, false, false, false, false, false,
                 "monolithic"}),
    [](const testing::TestParamInfo<Scenario> &info) {
        return info.param.name;
    });

TEST(Checkpoint, RunsExactlyTheRequestedQuanta)
{
    FullSystemOptions opts = scenarioOptions({});
    FullSystem sys(Config(), opts);
    sys.run(3 * opts.quantum);
    EXPECT_EQ(sys.simulation().curTick(), 3 * opts.quantum);
}

TEST(Checkpoint, MismatchedConfigurationRejectedNonFatally)
{
    Scenario base{};
    FullSystemOptions opts = scenarioOptions(base);
    std::string image;
    {
        FullSystem sys(Config(), opts);
        sys.run(2 * opts.quantum);
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }
    Scenario other = base;
    other.conservative = true;
    FullSystem sys(Config(), scenarioOptions(other));
    std::string why;
    EXPECT_FALSE(sys.restoreFromBytes(image, &why));
    EXPECT_NE(why.find("mismatch"), std::string::npos);
}

TEST(Checkpoint, QuarantinedBridgeRestoresQuarantined)
{
    // Dropped packets violate conservation, so the conservative run
    // degrades; the archived state machine must come back verbatim —
    // still quarantined, same cooldown trajectory.
    Scenario s{Mode::CosimCycle, true, false, true, false, false, ""};
    FullSystemOptions opts = scenarioOptions(s);
    opts.health.recovery_quanta = 1000; // stay degraded for the test

    FullSystem sys(Config(), opts);
    sys.run(6 * opts.quantum);
    ASSERT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);
    double degradations = sys.bridge().health()->degradations.value();
    std::ostringstream os;
    sys.saveTo(os);

    FullSystem restored(Config(), opts);
    std::string why;
    ASSERT_TRUE(restored.restoreFromBytes(os.str(), &why)) << why;
    EXPECT_EQ(restored.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);
    EXPECT_EQ(restored.bridge().health()->degradations.value(),
              degradations);
    // The degraded bridge serves estimates from the last-good table;
    // the restored one must hold exactly the same tuned state.
    EXPECT_TRUE(
        restored.bridge().table().identicalTo(sys.bridge().table()));
    // And the resumed degraded run keeps serving the system.
    Tick a = restored.run(run_limit);
    Tick b = sys.run(run_limit);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------
// On-disk crash safety: periodic images, rotation, corruption fallback
// ---------------------------------------------------------------------

namespace fs = std::filesystem;

std::vector<fs::path>
checkpointFiles(const fs::path &dir)
{
    std::vector<fs::path> out;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".ckpt")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

class CheckpointDisk : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::path(testing::TempDir()) /
               ("rasim_ckpt_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    FullSystemOptions
    diskOptions(std::uint64_t interval, std::uint64_t keep)
    {
        FullSystemOptions o = scenarioOptions({});
        o.checkpoint.interval_quanta = interval;
        o.checkpoint.keep = keep;
        o.checkpoint.dir = dir_.string();
        return o;
    }

    fs::path dir_;
};

TEST_F(CheckpointDisk, PeriodicImagesRotateToKeep)
{
    FullSystemOptions opts = diskOptions(2, 3);
    FullSystem sys(Config(), opts);
    Tick finish = sys.run(run_limit);
    EXPECT_GT(finish, 0u);
    auto images = checkpointFiles(dir_);
    EXPECT_EQ(images.size(), 3u);
    // No torn temp files left behind by the atomic write protocol.
    for (const auto &e : fs::directory_iterator(dir_))
        EXPECT_NE(e.path().extension(), ".tmp");
}

TEST_F(CheckpointDisk, RestoreFromDirectoryResumesToSameResult)
{
    FullSystemOptions opts = diskOptions(2, 3);
    Tick ref_finish;
    {
        FullSystemOptions ref_opts = scenarioOptions({});
        FullSystem ref(Config(), ref_opts);
        ref_finish = ref.run(run_limit);
    }
    {
        FullSystem sys(Config(), opts);
        sys.run(run_limit);
    }
    // Boot a new system from the newest retained image and finish the
    // (already finished) run: state, including final stats, matches.
    FullSystemOptions r_opts = diskOptions(0, 3);
    r_opts.checkpoint.restore = dir_.string();
    FullSystem resumed(Config(), r_opts);
    EXPECT_GT(resumed.simulation().curTick(), 0u);
    Tick finish = resumed.run(run_limit);
    EXPECT_EQ(finish, ref_finish);
}

TEST_F(CheckpointDisk, CorruptNewestFallsBackToOlderImage)
{
    {
        FullSystem sys(Config(), diskOptions(2, 3));
        sys.run(run_limit);
    }
    auto images = checkpointFiles(dir_);
    ASSERT_GE(images.size(), 2u);

    // Corrupt the newest image (flip one byte mid-file).
    const fs::path &newest = images.back();
    {
        std::fstream f(newest,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            fs::file_size(newest) / 2));
        char c;
        f.seekg(f.tellp());
        f.get(c);
        f.seekp(-1, std::ios::cur);
        f.put(static_cast<char>(c ^ 0x5a));
    }

    FullSystemOptions r_opts = diskOptions(0, 3);
    r_opts.checkpoint.restore = dir_.string();
    auto warns_before = warnCount();
    FullSystem resumed(Config(), r_opts);
    EXPECT_GT(warnCount(), warns_before); // the rejection was reported
    // It restored — from the older image, i.e. an earlier tick than
    // the corrupt newest one encoded in its filename.
    EXPECT_GT(resumed.simulation().curTick(), 0u);
    Tick finish = resumed.run(run_limit);
    EXPECT_GT(finish, 0u);
    EXPECT_TRUE(resumed.allCoresDone());
}

TEST_F(CheckpointDisk, AllImagesCorruptIsFatal)
{
    {
        FullSystem sys(Config(), diskOptions(4, 2));
        sys.run(run_limit);
    }
    for (const auto &p : checkpointFiles(dir_)) {
        std::ofstream f(p, std::ios::trunc | std::ios::binary);
        f << "not a checkpoint";
    }
    FullSystemOptions r_opts = diskOptions(0, 2);
    r_opts.checkpoint.restore = dir_.string();
    EXPECT_SIM_ERROR(FullSystem(Config(), r_opts), "no usable checkpoint");
}

TEST_F(CheckpointDisk, MissingDirectoryIsFatal)
{
    FullSystemOptions r_opts = scenarioOptions({});
    r_opts.checkpoint.restore = (dir_ / "nonexistent.ckpt").string();
    EXPECT_SIM_ERROR(FullSystem(Config(), r_opts), "no usable checkpoint");
}

} // namespace
