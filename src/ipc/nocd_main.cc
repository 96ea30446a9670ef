/**
 * @file
 * rasim-nocd: the out-of-process NoC backend daemon. Hosts one
 * cycle-level network per session behind a Unix-domain or TCP socket,
 * serving many concurrent sessions on their own threads; RemoteNetwork
 * clients (network.backend=remote) drive it with the quantum-RPC
 * protocol.
 *
 * Usage: rasim-nocd [address] [--once] [--serve-limit N]
 *                   [--max-sessions N] [--max-active N]
 *                   [--quota-frames N] [--max-batch-packets N]
 *                   [--io-timeout-ms MS]
 *                   [--drain-timeout MS] [--session-timeout-ms MS]
 *                   [key=value ...]
 *
 *   --once / --serve-limit   exit after serving N sessions (tooling)
 *   --max-sessions           concurrent-session admission cap
 *   --max-active             sessions computing at once (0 = auto)
 *   --quota-frames           consecutive grants before a forced yield
 *   --max-batch-packets      per-batch quota (refused as backpressure)
 *   --drain-timeout          SIGTERM grace period for live sessions
 *   --session-timeout-ms     watchdog: reap frame-less sessions
 *
 * Any key=value argument is parsed as a config setting and folded in
 * through NocServerOptions::fromConfig — the hook for the shared
 * "fault.transport.*" chaos keys (and any "server.*" key) without a
 * dedicated flag each. Flags win over key=value settings.
 *
 * Signals: SIGTERM drains — the daemon stops accepting, lets every
 * live session finish its in-flight request and close at a frame
 * boundary (no torn frames on the wire), and hard-stops stragglers
 * after the drain timeout. SIGINT stops immediately.
 *
 * The default address is unix:/tmp/rasim-nocd.sock. The server prints
 * "rasim-nocd listening on <address>" once it is connectable, so
 * scripts can wait on that line instead of sleeping.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ipc/nocd_server.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace
{

rasim::ipc::NocServer *running_server = nullptr;

void
onTerm(int)
{
    if (running_server)
        running_server->drain(); // plain atomic stores: safe here
}

void
onInt(int)
{
    if (running_server)
        running_server->stop(); // plain atomic stores: safe here
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [address] [--once] [--serve-limit N] "
                 "[--max-sessions N] [--max-active N] "
                 "[--quota-frames N] [--max-batch-packets N] "
                 "[--io-timeout-ms MS] "
                 "[--drain-timeout MS] [--session-timeout-ms MS] "
                 "[key=value ...]\n"
                 "  address    unix:/path, tcp:host:port, or a bare "
                 "path (default unix:/tmp/rasim-nocd.sock)\n"
                 "  key=value  any server.* or fault.transport.* "
                 "config setting\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // key=value settings first (parseArgs skips everything else), so
    // explicit flags below override them.
    rasim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);
    rasim::ipc::NocServerOptions opts;
    try {
        opts = rasim::ipc::NocServerOptions::fromConfig(cfg);
    } catch (const rasim::SimError &err) {
        std::fprintf(stderr, "rasim-nocd: %s\n", err.what());
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strchr(arg, '=') != nullptr) {
            continue; // consumed by the Config pass above
        } else if (std::strcmp(arg, "--once") == 0) {
            opts.serve_limit = 1;
        } else if (std::strcmp(arg, "--serve-limit") == 0 &&
                   i + 1 < argc) {
            opts.serve_limit =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(arg, "--max-sessions") == 0 &&
                   i + 1 < argc) {
            opts.max_sessions =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(arg, "--max-active") == 0 &&
                   i + 1 < argc) {
            opts.max_active = std::atoi(argv[++i]);
        } else if (std::strcmp(arg, "--quota-frames") == 0 &&
                   i + 1 < argc) {
            opts.quota_frames =
                static_cast<std::uint32_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(arg, "--max-batch-packets") == 0 &&
                   i + 1 < argc) {
            opts.max_batch_packets =
                static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(arg, "--io-timeout-ms") == 0 &&
                   i + 1 < argc) {
            opts.io_timeout_ms = std::atof(argv[++i]);
        } else if (std::strcmp(arg, "--drain-timeout") == 0 &&
                   i + 1 < argc) {
            opts.drain_timeout_ms = std::atof(argv[++i]);
        } else if (std::strcmp(arg, "--session-timeout-ms") == 0 &&
                   i + 1 < argc) {
            opts.session_timeout_ms = std::atof(argv[++i]);
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else {
            opts.address = arg;
        }
    }
    // Hygiene: a misspelled fault.transport.* / server.* key should
    // not silently configure nothing.
    cfg.warnUnread({"server.", "fault."});

    // A client that dies mid-reply must not kill the server (sendAll
    // also passes MSG_NOSIGNAL; this covers platforms without it).
    std::signal(SIGPIPE, SIG_IGN);

    try {
        rasim::ipc::NocServer server(std::move(opts));
        running_server = &server;
        std::signal(SIGINT, onInt);
        std::signal(SIGTERM, onTerm);
        std::printf("rasim-nocd listening on %s\n",
                    server.address().c_str());
        std::fflush(stdout);
        server.run();
        running_server = nullptr;
        std::printf("rasim-nocd served %llu session(s), exiting\n",
                    static_cast<unsigned long long>(
                        server.sessionsServed()));
        return 0;
    } catch (const rasim::SimError &err) {
        std::fprintf(stderr, "rasim-nocd: %s\n", err.what());
        return 1;
    }
}
