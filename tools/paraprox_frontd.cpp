/// @file
/// paraprox_frontd: multi-process scale-out serving demo, supervised.
///
/// The parent spawns N replica worker processes (fork/exec of this same
/// binary with --replica-worker), each running an ApproxService behind an
/// AF_UNIX ReplicaServer with a CalibrationPlane pointed at one shared
/// artifact store.  A net::Supervisor owns the fleet's lifecycle: SIGCHLD
/// reaping (no zombies), Ping/Pong liveness probing, restart with
/// exponential backoff, and crash-loop quarantine.  Workers register
/// their kernels with a warm key against the shared store, so a restarted
/// replica restores the fleet's calibrations instead of re-profiling.
///
/// The parent then runs a FrontDoor over the fleet, pushes a request
/// stream through it (reviving restarted replicas as the supervisor
/// reports them healthy), injects one drift event, waits for the fleet to
/// arbitrate it, scrapes per-replica stats over the wire, and drains.
/// SIGTERM/SIGINT trigger the same graceful drain: stop admitting, ask
/// every worker to shut down over the wire, collect the children.
///
/// Chaos: arm PARAPROX_FAULTS (inherited by the workers) — e.g.
/// `replica.crash:match=replica-0,every=3,limit=1` kills one worker
/// mid-request; the run then demonstrates requeue + restart + revive.
///
/// Usage: paraprox_frontd [--replicas N] [--requests N]
///                        [--store DIR] [--listen SOCKET]
///
/// Internal: paraprox_frontd --replica-worker ID SOCKET STORE_DIR

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "net/calibration_plane.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/supervisor.h"
#include "net/wire.h"
#include "serve/service.h"
#include "store/artifact_store.h"

namespace {

using namespace paraprox;

constexpr double kToq = 90.0;
const std::vector<std::uint64_t> kTrainingSeeds = {101, 202};

volatile sig_atomic_t g_drain_requested = 0;

void
on_drain_signal(int)
{
    g_drain_requested = 1;
}

void
install_drain_signals()
{
    struct sigaction action{};
    action.sa_handler = on_drain_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
}

/// The kernels every replica serves.  All replicas must register the
/// same families identically or the shared calibration plane would be
/// publishing calibrations its peers cannot adopt.
std::vector<std::unique_ptr<apps::Application>>
fleet_apps()
{
    std::vector<std::unique_ptr<apps::Application>> apps;
    apps.push_back(apps::make_mean_filter());
    apps.push_back(apps::make_naive_bayes());
    for (auto& app : apps)
        app->set_scale(0.1);
    return apps;
}

/// The fleet-wide key a kernel's calibration lives under — used both for
/// warm registration (a restarted worker restores instead of
/// re-profiling) and for the plane's drift publishes.  Deterministic
/// across replicas: every worker derives the same key.
store::StoreKey
fleet_key(const std::string& kernel, runtime::Metric metric)
{
    store::StoreKey key;
    key.kernel = kernel;
    key.device = device::DeviceModel::gtx560().name;
    key.toq = kToq;
    key.metric = runtime::to_string(metric);
    key.detail = "fleet";
    return key;
}

/// Replica worker process: serve until a ShutdownRequest (or SIGTERM)
/// arrives, then drain cleanly.
int
run_replica_worker(const std::string& id, const std::string& socket_path,
                   const std::string& store_dir)
{
    // The parent coordinates shutdown over the wire; a terminal ^C
    // reaches the whole process group, so SIGINT must not drop workers
    // mid-drain.  SIGTERM still works as a direct per-worker drain.
    signal(SIGINT, SIG_IGN);
    install_drain_signals();

    auto store = store::ArtifactStore::configure_global(store_dir);

    serve::ServiceConfig config;
    config.num_workers = 2;
    serve::ApproxService service(config);

    net::PlaneConfig plane_config;
    plane_config.replica_id = id;
    net::CalibrationPlane plane(service, store, plane_config);

    const auto device = device::DeviceModel::gtx560();
    for (auto& app : fleet_apps()) {
        const auto info = app->info();
        // Warm key: the first worker to calibrate persists; every later
        // (re)start restores — a supervised restart rejoins the fleet
        // without a profiling sweep.
        service.register_kernel(info.name, app->variants(device),
                                info.metric, kToq, kTrainingSeeds,
                                fleet_key(info.name, info.metric));
        plane.track(info.name, fleet_key(info.name, info.metric));
    }
    plane.start();

    net::ReplicaOptions options;
    options.id = id;
    options.socket_path = socket_path;
    net::ReplicaServer server(service, &plane, options);
    if (!server.start()) {
        std::fprintf(stderr, "%s: cannot bind %s\n", id.c_str(),
                     socket_path.c_str());
        return 1;
    }
    while (!server.shutdown_requested() && !g_drain_requested)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Graceful local drain: stop taking connections, serve what is
    // queued, release any held drift lease.
    server.stop();
    service.stop();
    plane.stop();
    return 0;
}

/// Fork/exec this binary in --replica-worker mode; returns the pid.
pid_t
spawn_worker(const std::string& id, const std::string& socket_path,
             const std::string& store_dir)
{
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    execl("/proc/self/exe", "paraprox_frontd", "--replica-worker",
          id.c_str(), socket_path.c_str(), store_dir.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
}

/// Block until the worker's endpoint accepts a connection.
bool
wait_for_endpoint(const std::string& socket_path,
                  std::chrono::milliseconds timeout)
{
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < give_up) {
        Socket probe = connect_unix(socket_path);
        if (probe.valid())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/// Put supervisor-confirmed-healthy replicas back into the front door's
/// rotation (a failure marks them dead; only the supervisor knows when
/// the restarted process is answering again).
void
revive_restarted(net::FrontDoor& door, const net::Supervisor& supervisor)
{
    const auto slots = supervisor.snapshot();
    for (std::size_t i = 0; i < slots.size() && i < door.num_replicas();
         ++i) {
        if (slots[i].healthy && !door.replica_alive(i))
            door.revive(i);
    }
}

std::optional<net::ReplicaStats>
scrape_stats(net::FrontDoor& door, std::size_t index)
{
    const auto reply = door.call(index, net::MsgType::StatsRequest, {});
    if (!reply || reply->type != net::MsgType::StatsReply)
        return std::nullopt;
    return net::ReplicaStats::decode(reply->payload);
}

/// Graceful fleet drain: stop restarting, ask every worker to stop over
/// the wire, wait for the supervisor to collect them (SIGKILL stragglers
/// after @p timeout).  Returns true when every child exited.
bool
drain_fleet(net::FrontDoor& door, net::Supervisor& supervisor,
            std::chrono::milliseconds timeout)
{
    supervisor.quiesce();
    for (std::size_t i = 0; i < door.num_replicas(); ++i)
        door.call(i, net::MsgType::ShutdownRequest, {});

    const auto give_up = std::chrono::steady_clock::now() + timeout;
    const auto all_down = [&supervisor] {
        for (const auto& slot : supervisor.snapshot()) {
            if (slot.up)
                return false;
        }
        return true;
    };
    while (!all_down() && std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    bool clean = all_down();
    if (!clean) {
        // A worker that ignores the wire (wedged, quarantine-bound) is
        // killed rather than leaked; the supervisor's loop reaps it.
        const auto slots = supervisor.snapshot();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i].up)
                supervisor.kill_slot(i, SIGKILL);
        }
        const auto hard_stop =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (!all_down() && std::chrono::steady_clock::now() < hard_stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    supervisor.stop();
    return clean && all_down();
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc == 5 && std::strcmp(argv[1], "--replica-worker") == 0)
        return run_replica_worker(argv[2], argv[3], argv[4]);

    int replicas = 2;
    int requests = 64;
    std::string store_dir;
    std::string listen_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--replicas" && i + 1 < argc) {
            replicas = std::atoi(argv[++i]);
        } else if (arg == "--requests" && i + 1 < argc) {
            requests = std::atoi(argv[++i]);
        } else if (arg == "--store" && i + 1 < argc) {
            store_dir = argv[++i];
        } else if (arg == "--listen" && i + 1 < argc) {
            listen_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--replicas N] [--requests N] "
                         "[--store DIR] [--listen SOCKET]\n",
                         argv[0]);
            return 1;
        }
    }
    if (replicas < 1 || requests < 1) {
        std::fprintf(stderr, "need at least 1 replica and 1 request\n");
        return 1;
    }

    install_drain_signals();
    net::Supervisor::install_sigchld();

    const std::string run_dir =
        "/tmp/paraprox-frontd-" + std::to_string(getpid());
    std::filesystem::create_directories(run_dir);
    if (store_dir.empty()) {
        store_dir = run_dir + "/store";
        std::filesystem::create_directories(store_dir);
    }

    // The supervised fleet: the supervisor spawns, probes, restarts.
    std::vector<net::SupervisedReplica> slots;
    std::vector<net::ReplicaEndpoint> endpoints;
    for (int i = 0; i < replicas; ++i) {
        net::SupervisedReplica slot;
        slot.id = "replica-" + std::to_string(i);
        slot.socket_path = run_dir + "/" + slot.id + ".sock";
        endpoints.push_back({slot.id, slot.socket_path});
        slots.push_back(std::move(slot));
    }
    net::Supervisor supervisor(
        slots,
        [store_dir](const net::SupervisedReplica& slot) {
            return spawn_worker(slot.id, slot.socket_path, store_dir);
        });
    supervisor.start();
    std::printf("paraprox_frontd: %d replicas (supervised), store %s\n",
                replicas, store_dir.c_str());
    for (const auto& endpoint : endpoints) {
        if (!wait_for_endpoint(endpoint.socket_path,
                               std::chrono::seconds(30))) {
            std::fprintf(stderr, "%s never came up\n",
                         endpoint.id.c_str());
            return 1;
        }
        std::printf("  %s up at %s\n", endpoint.id.c_str(),
                    endpoint.socket_path.c_str());
    }

    net::FrontDoorOptions door_options;
    door_options.socket_path = listen_path;
    net::FrontDoor door(endpoints, door_options);
    if (!door.start()) {
        std::fprintf(stderr, "cannot bind front door %s\n",
                     listen_path.c_str());
        return 1;
    }

    // Request stream, round-robin over the fleet's kernels.  Every
    // route() returns a terminal reply, so unresolved is computed, not
    // hoped for.
    const auto apps = fleet_apps();
    int ok = 0, expired = 0, rejected = 0, routed = 0;
    for (int i = 0; i < requests && !g_drain_requested; ++i) {
        revive_restarted(door, supervisor);
        net::SubmitRequest request;
        request.kernel = apps[i % apps.size()]->info().name;
        request.toq = kToq;
        request.input = net::SubmitRequest::seed_input(7000 + i);
        const net::SubmitReply reply = door.route(std::move(request));
        ++routed;
        if (reply.status == net::WireStatus::Ok)
            ++ok;
        else if (reply.status == net::WireStatus::DeadlineExceeded)
            ++expired;
        else
            ++rejected;
    }
    const int unresolved = routed - ok - expired - rejected;
    std::printf("routed %d requests: %d ok, %d expired, %d rejected, "
                "unresolved=%d\n",
                routed, ok, expired, rejected, unresolved);

    if (!g_drain_requested) {
        // One drift event, announced to every replica at once: the plane
        // arbitrates via the shared store, so exactly one replica should
        // recalibrate and the rest adopt its published calibration.
        const std::string drifted = apps.front()->info().name;
        net::DriftRequest drift;
        drift.kernel = drifted;
        for (std::size_t i = 0; i < endpoints.size(); ++i)
            door.call(i, net::MsgType::DriftRequest, drift.encode());
        std::printf("injected drift on `%s` fleet-wide\n", drifted.c_str());

        // Wait for the event to resolve: every reachable replica either
        // published its own recalibration, adopted the winner's, or lost
        // the publish race — all terminal, so the stats below are final.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (std::chrono::steady_clock::now() < deadline &&
               !g_drain_requested) {
            std::uint64_t resolved = 0;
            for (std::size_t i = 0; i < endpoints.size(); ++i) {
                if (const auto stats = scrape_stats(door, i);
                    stats && stats->plane.published +
                                     stats->metrics.adopted_calibrations +
                                     stats->plane.redundant >
                                 0)
                    ++resolved;
            }
            if (resolved == endpoints.size())
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }

    // Each replica's scraped Stats frame, printed from the decoded
    // snapshot: every declared serve counter, then the plane's.
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
        const auto stats = scrape_stats(door, i);
        if (!stats) {
            std::printf("\n%s: (unreachable)\n", endpoints[i].id.c_str());
            continue;
        }
        std::printf("\n%s stats:\n%s", stats->replica.c_str(),
                    serve::format_metrics(stats->metrics).c_str());
#define PARAPROX_PLANE_ROW(name, help)                                     \
    std::printf("  %-26s %llu\n", "plane." #name,                          \
                static_cast<unsigned long long>(stats->plane.name));
        PARAPROX_PLANE_STATS(PARAPROX_PLANE_ROW)
#undef PARAPROX_PLANE_ROW
    }
    const auto door_stats = door.stats();
    std::printf("front door: %llu requests, %llu requeues, %llu replica "
                "failures\n",
                static_cast<unsigned long long>(door_stats.requests),
                static_cast<unsigned long long>(door_stats.requeues),
                static_cast<unsigned long long>(
                    door_stats.replica_failures));
    const auto sup_stats = supervisor.stats();
    std::printf("supervisor: spawns=%llu restarts=%llu reaps=%llu "
                "kills=%llu quarantined=%llu\n",
                static_cast<unsigned long long>(sup_stats.spawns),
                static_cast<unsigned long long>(sup_stats.restarts),
                static_cast<unsigned long long>(sup_stats.reaps),
                static_cast<unsigned long long>(sup_stats.kills),
                static_cast<unsigned long long>(sup_stats.quarantined));

    const bool clean = drain_fleet(door, supervisor,
                                   std::chrono::seconds(10));
    door.stop();
    const int exit_code = (clean && unresolved == 0) ? 0 : 1;
    // A caller-supplied --store lives outside run_dir and survives.
    std::error_code ec;
    std::filesystem::remove_all(run_dir, ec);
    std::printf("fleet down, exit %d\n", exit_code);
    return exit_code;
}
