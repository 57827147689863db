/// @file
/// fleet-mixed: a FrontDoor over two forked replica processes on Unix
/// sockets, sharing a fresh artifact store, so the second replica
/// warm-starts from the first one's calibrations.  A closed loop of
/// clients sends a mix of four kernels: Mean Filter (coalesces through
/// run_batch), Kernel Density Estimation, the image_edges pipeline and
/// the HotSpot data tier (neither of the last two has run_batch, so their
/// batches fall back to per-seed launches).  About a quarter of the
/// requests carry a generous deadline budget.
///
/// This is the only workload on the net layer (wire, routing, sockets)
/// and the store's warm path; it uses the serve layer with many shards
/// and little coalescing.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "apps/pipelines.h"
#include "device/device_model.h"
#include "net/frontdoor.h"
#include "net/replica.h"
#include "net/wire.h"
#include "runtime/data_tier.h"
#include "runtime/pipeline.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/socket.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace apps = paraprox::apps;
namespace net = paraprox::net;
namespace runtime = paraprox::runtime;
namespace serve = paraprox::serve;
namespace store = paraprox::store;

/// Workload scale of the image kernels; KDE runs 128 queries, so each
/// of the four kernels costs a millisecond or two per request.
constexpr double kScale = 0.25;
constexpr double kKdeScale = 0.0625;
constexpr int kReplicas = 2;
constexpr std::size_t kReplicaWorkers = 2;
/// Pool threads per replica process (PARAPROX_THREADS); 1 runs each
/// launch on its worker thread.
constexpr const char* kReplicaThreads = "1";
constexpr int kClients = 4;
constexpr int kSetupReps = 7;
/// Length of one measured cycle; a run of S seconds measures S / this
/// many cycles and reports medians over them, so a stall on a shared
/// host moves a few cycles, not the run.
constexpr double kCycleSeconds = 1.25;
constexpr double kWarmupSeconds = 1.0;
/// Share of the run measured with one client (p50_ms_light).
constexpr double kLightShare = 0.3;
/// Deadline budget carried by about one request in four.
constexpr std::uint64_t kDeadlineUs = 250000;
constexpr std::uint64_t kKeepEvery = 8;
constexpr std::size_t kKeepPerKernel = 24;

const std::vector<std::string> kKernels = {
    "Mean Filter", "Kernel Density Estimation", "image_edges",
    "HotSpot data"};
constexpr runtime::Metric kPipelineMetric = runtime::Metric::L1Norm;

store::StoreKey
fleet_key(const std::string& kernel, runtime::Metric metric)
{
    store::StoreKey key;
    key.kernel = kernel;
    key.device = paraprox::device::DeviceModel::gtx560().name;
    key.toq = kToq;
    key.metric = runtime::to_string(metric);
    key.detail = "fleet";
    return key;
}

/// The four kernel families, built identically in every replica and, for
/// off-clock checks, in the parent.
struct Families {
    std::unique_ptr<apps::Application> mean;
    std::unique_ptr<apps::Application> kde;
    std::unique_ptr<apps::Application> hotspot;
    std::optional<apps::Application::Setup> hotspot_setup;
    std::unique_ptr<runtime::PipelineSession> edges;

    Families()
    {
        mean = make_app("Mean Filter", kScale);
        kde = make_app("Kernel Density Estimation", kKdeScale);
        hotspot = make_app("HotSpot", kScale);
        hotspot_setup =
            hotspot->setup(paraprox::device::DeviceModel::gtx560());
        apps::ImagePipelineOptions options;
        options.scale = kScale;
        edges = std::make_unique<runtime::PipelineSession>(
            apps::make_image_pipeline(options).pipeline);
    }

    std::vector<runtime::Metric> metrics() const
    {
        return {mean->info().metric, kde->info().metric, kPipelineMetric,
                hotspot->info().metric};
    }

    void register_all(serve::ApproxService& service) const
    {
        const auto device = paraprox::device::DeviceModel::gtx560();
        const auto metric = metrics();
        service.register_kernel(kKernels[0], mean->variants(device),
                                metric[0], kToq, kTrainingSeeds,
                                fleet_key(kKernels[0], metric[0]));
        service.register_kernel(kKernels[1], kde->variants(device),
                                metric[1], kToq, kTrainingSeeds,
                                fleet_key(kKernels[1], metric[1]));
        service.register_pipeline(kKernels[2], *edges, metric[2], kToq,
                                  kTrainingSeeds);
        service.register_data_kernel(kKernels[3], *hotspot_setup->session,
                                     hotspot_setup->plan, metric[3], kToq,
                                     kTrainingSeeds);
    }

    /// Variant lists, index-aligned with kKernels.
    std::vector<std::vector<runtime::Variant>> variant_lists() const
    {
        const auto device = paraprox::device::DeviceModel::gtx560();
        return {mean->variants(device), kde->variants(device),
                edges->joint_variants(),
                runtime::build_data_tier(*hotspot_setup->session,
                                         hotspot_setup->plan)
                    .variants};
    }
};

// ---- Replica process ---------------------------------------------------

/// What a replica writes at shutdown: `key value` lines.
using ReplicaReport = std::map<std::string, double>;

void
write_report(const std::string& path, const ReplicaReport& report)
{
    std::ofstream out(path);
    out.precision(17);
    for (const auto& [key, value] : report)
        out << key << " " << value << "\n";
}

ReplicaReport
read_report(const std::string& path)
{
    ReplicaReport report;
    std::ifstream in(path);
    std::string key;
    double value = 0.0;
    while (in >> key >> value)
        report[key] = value;
    return report;
}

}  // namespace

int
run_replica(int argc, char** argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: perfbench --replica ID SOCKET STORE "
                             "REPORT\n");
        return 2;
    }
    const std::string id = argv[0];
    const std::string socket_path = argv[1];
    const std::string report_path = argv[3];
    signal(SIGINT, SIG_IGN);

    const auto start = Clock::now();
    auto artifact_store = store::ArtifactStore::configure_global(argv[2]);
    serve::ServiceConfig config;
    config.num_workers = kReplicaWorkers;
    serve::ApproxService service(config);
    Families families;
    families.register_all(service);
    const double register_s = seconds_between(start, Clock::now());

    net::ReplicaOptions options;
    options.id = id;
    options.socket_path = socket_path;
    net::ReplicaServer server(service, nullptr, options);
    if (!server.start()) {
        std::fprintf(stderr, "%s: cannot bind %s\n", id.c_str(),
                     socket_path.c_str());
        return 1;
    }
    while (!server.shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.stop();
    const auto metrics = service.snapshot().metrics;
    service.stop();

    ReplicaReport report;
    report["register_s"] = register_s;
    report["warm"] = static_cast<double>(metrics.warm_registrations +
                                         metrics.warm_pipelines +
                                         metrics.warm_data_tiers);
    report["store_hits"] = static_cast<double>(artifact_store->stats().hits);
    report["served"] = static_cast<double>(metrics.served);
    report["batches"] = static_cast<double>(metrics.batch.batches);
    report["batch_requests"] =
        metrics.batch.mean_size * static_cast<double>(metrics.batch.batches);
    report["coalesced_requests"] =
        static_cast<double>(metrics.batch.coalesced_requests);
    report["shadow_runs"] = static_cast<double>(metrics.shadow_runs);
    report["degraded_serves"] = static_cast<double>(metrics.degraded_serves);
    report["cancelled_launches"] =
        static_cast<double>(metrics.cancelled_launches);
    report["deadline_expired"] = static_cast<double>(metrics.deadline_expired);
    report["rejected"] = static_cast<double>(
        metrics.rejected_full + metrics.rejected_unknown +
        metrics.rejected_stopped + metrics.rejected_closed_race +
        metrics.rejected_deadline);
    report["peak_rss_mb"] = self_peak_rss_mb();
    write_report(report_path, report);
    return 0;
}

namespace {

// ---- Fleet lifecycle ---------------------------------------------------

struct Fleet {
    std::vector<pid_t> pids;
    std::vector<net::ReplicaEndpoint> endpoints;
    std::vector<std::string> report_paths;
    std::unique_ptr<net::FrontDoor> door;
};

/// fork + exec this binary in replica mode with its own thread budget.
/// The environment is prepared before fork: the child only execs.
pid_t
spawn_replica(const std::string& id, const std::string& socket_path,
              const std::string& store_dir, const std::string& report_path)
{
    std::vector<std::string> env;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        if (std::strncmp(*entry, "PARAPROX_THREADS=", 17) != 0)
            env.emplace_back(*entry);
    }
    env.push_back(std::string("PARAPROX_THREADS=") + kReplicaThreads);
    std::vector<char*> envp;
    for (auto& entry : env)
        envp.push_back(entry.data());
    envp.push_back(nullptr);
    std::vector<std::string> args = {"perfbench", "--replica", id,
                                     socket_path, store_dir, report_path};
    std::vector<char*> argv;
    for (auto& arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid == 0) {
        // Die with the benchmark, whatever ends it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        execve("/proc/self/exe", argv.data(), envp.data());
        _exit(127);
    }
    return pid;
}

bool
wait_for_endpoint(const std::string& socket_path, pid_t pid)
{
    const auto give_up = Clock::now() + std::chrono::seconds(90);
    while (Clock::now() < give_up) {
        if (paraprox::connect_unix(socket_path).valid())
            return true;
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid)
            return false;  // The replica died during registration.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

net::SubmitRequest
make_request(int kernel, std::uint64_t seed, bool deadline)
{
    net::SubmitRequest request;
    request.kernel = kKernels[kernel];
    request.toq = kToq;
    request.deadline_us = deadline ? kDeadlineUs : 0;
    request.input = net::SubmitRequest::seed_input(seed);
    return request;
}

void
stop_fleet(Fleet& fleet)
{
    if (fleet.door) {
        for (std::size_t i = 0; i < fleet.endpoints.size(); ++i)
            fleet.door->call(i, net::MsgType::ShutdownRequest, {});
        fleet.door->stop();
    }
    for (const pid_t pid : fleet.pids) {
        const auto give_up = Clock::now() + std::chrono::seconds(20);
        int status = 0;
        while (waitpid(pid, &status, WNOHANG) == 0) {
            if (Clock::now() > give_up) {
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    fleet.pids.clear();
}

/// Cold fleet start on a fresh store: replica 0 calibrates, replica 1
/// warm-starts from its records; ready once a first request routes Ok.
/// Returns the set-up seconds, or a negative value on failure.
double
start_fleet(Fleet& fleet, const std::string& dir, Tracer& tracer)
{
    const auto start = Clock::now();
    const std::string store_dir = dir + "/store";
    std::filesystem::create_directories(store_dir);
    for (int i = 0; i < kReplicas; ++i) {
        net::ReplicaEndpoint endpoint;
        endpoint.id = "replica-" + std::to_string(i);
        endpoint.socket_path = dir + "/r" + std::to_string(i) + ".sock";
        const std::string report = dir + "/r" + std::to_string(i) + ".report";
        const auto spawned = Clock::now();
        const pid_t pid =
            spawn_replica(endpoint.id, endpoint.socket_path, store_dir, report);
        if (pid < 0)
            return -1.0;
        fleet.pids.push_back(pid);
        if (!wait_for_endpoint(endpoint.socket_path, pid)) {
            std::fprintf(stderr, "fleet: %s never came up\n",
                         endpoint.id.c_str());
            return -1.0;
        }
        tracer.record("setup.replica", spawned, Clock::now());
        fleet.endpoints.push_back(endpoint);
        fleet.report_paths.push_back(report);
    }
    fleet.door = std::make_unique<net::FrontDoor>(fleet.endpoints);
    if (!fleet.door->start())
        return -1.0;
    const auto first = fleet.door->route(
        make_request(0, kVerificationSeeds.front(), false));
    if (first.status != net::WireStatus::Ok)
        return -1.0;
    const auto end = Clock::now();
    tracer.record("setup", start, end);
    return seconds_between(start, end);
}

// ---- Closed-loop traffic -----------------------------------------------

struct Sample {
    int kernel = 0;
    int phase = 0;  ///< 0 = one client, 1 = all clients.
    int cycle = 0;
    bool ok = false;
    double ms = kMiss;
    Clock::time_point end;
    std::uint64_t seed = 0;
    std::string served_by;
    std::size_t reply_floats = 0;
    std::vector<float> output;  ///< Kept for sampled off-clock checks.
};

/// What a run keeps of a request once its cycle is summarized, so the
/// benchmark's own memory does not grow with the throughput it measures
/// (peak_rss_mb).
struct Record {
    double ms = kMiss;
    std::uint32_t reply_floats = 0;
    std::uint16_t cycle = 0;
    std::uint8_t kernel = 0;
    std::uint8_t phase = 0;
};

struct Traffic {
    std::vector<Sample> samples;
    Clock::time_point main_start;
    Clock::time_point main_end;
};

Traffic
run_traffic(net::FrontDoor& door, std::uint64_t seed, std::uint64_t& next_id,
            double seconds, int cycle, Tracer& tracer)
{
    Traffic traffic;
    std::mutex samples_mutex;
    std::atomic<std::uint64_t> ids{next_id};
    std::vector<std::atomic<std::size_t>> kept(kKernels.size());

    const auto client = [&](int phase, Clock::time_point end) {
        std::vector<Sample> local;
        while (Clock::now() < end) {
            const std::uint64_t id = ids.fetch_add(1);
            const std::uint64_t draw = derive_seed(seed, id);
            Sample sample;
            sample.kernel = static_cast<int>(draw % kKernels.size());
            sample.phase = phase;
            sample.cycle = cycle;
            sample.seed = derive_seed(seed ^ 0xf1ee7ull, id);
            const bool deadline = (draw >> 8) % 4 == 0;
            const auto t0 = Clock::now();
            auto reply =
                door.route(make_request(sample.kernel, sample.seed, deadline));
            sample.end = Clock::now();
            tracer.record("net.route", t0, sample.end, -1, id);
            if (reply.status == net::WireStatus::Ok) {
                sample.ok = true;
                sample.ms = ms_between(t0, sample.end);
                sample.served_by = std::move(reply.served_by);
                sample.reply_floats = reply.output.size();
                if (id % kKeepEvery == 0 &&
                    kept[sample.kernel].fetch_add(1) < kKeepPerKernel)
                    sample.output = std::move(reply.output);
            }
            local.push_back(std::move(sample));
        }
        std::lock_guard<std::mutex> lock(samples_mutex);
        for (auto& sample : local)
            traffic.samples.push_back(std::move(sample));
    };

    const auto duration = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };
    client(0, Clock::now() + duration(seconds * kLightShare));
    traffic.main_start = Clock::now();
    traffic.main_end = traffic.main_start + duration(seconds * (1 - kLightShare));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client, 1, traffic.main_end);
    for (auto& thread : clients)
        thread.join();
    next_id = ids.load();
    return traffic;
}

/// Per-cycle end-to-end figures; a run reports their medians.
struct TrafficSummary {
    double light_p50 = 0.0;
    double main_p50 = 0.0;
    double main_tail = 0.0;
    double rps = 0.0;
    std::size_t light_n = 0;
    std::size_t main_n = 0;
};

TrafficSummary
summarize(const Traffic& traffic)
{
    std::vector<double> light_ms;
    std::vector<double> main_ms;
    std::uint64_t ok_in_window = 0;
    for (const auto& sample : traffic.samples) {
        (sample.phase == 0 ? light_ms : main_ms).push_back(sample.ms);
        if (sample.phase == 1 && sample.ok && sample.end <= traffic.main_end)
            ++ok_in_window;
    }
    TrafficSummary out;
    out.light_p50 = percentile(light_ms, 50.0);
    out.main_p50 = percentile(main_ms, 50.0);
    out.main_tail = percentile(main_ms, supported_tail(main_ms.size()));
    out.rps = static_cast<double>(ok_in_window) /
              seconds_between(traffic.main_start, traffic.main_end);
    out.light_n = light_ms.size();
    out.main_n = main_ms.size();
    std::printf("cycle: light p50 %.3f ms, %d clients p50 %.3f ms %s %.3f "
                "ms, %.1f req/s\n",
                out.light_p50, kClients, out.main_p50,
                tail_label(supported_tail(main_ms.size())).c_str(),
                out.main_tail, out.rps);
    return out;
}

/// The label most of the checked replies of @p kernel were served by.
std::string
dominant_label(const std::vector<Sample>& samples, int kernel)
{
    std::map<std::string, std::size_t> counts;
    for (const auto& sample : samples) {
        if (sample.ok && sample.kernel == kernel)
            ++counts[sample.served_by];
    }
    std::string best;
    std::size_t most = 0;
    for (const auto& [label, count] : counts) {
        if (count > most) {
            best = label;
            most = count;
        }
    }
    return best;
}

/// One client submitting directly to an in-process service with the same
/// four kernels: the serve layer's cost on this mix without the net layer.
struct DirectResult {
    std::vector<double> ms;
    std::vector<double> submit_us;
    std::vector<double> queue_ms;
    std::vector<double> launch_ms;
};

DirectResult
run_direct(const Families& families, std::uint64_t seed, double seconds,
           Tracer& tracer)
{
    serve::ServiceConfig config;
    config.num_workers = kReplicaWorkers;
    serve::ApproxService service(config);
    families.register_all(service);
    DirectResult out;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    for (std::uint64_t id = 1; Clock::now() < end; ++id) {
        const std::uint64_t draw = derive_seed(seed ^ 0xd12ec7ull, id);
        const int kernel = static_cast<int>(draw % kKernels.size());
        serve::SubmitOptions options;
        if ((draw >> 8) % 4 == 0)
            options = serve::SubmitOptions::within(
                std::chrono::microseconds(kDeadlineUs));
        const auto t0 = Clock::now();
        auto ticket = service.submit(kKernels[kernel], derive_seed(seed, id),
                                     options);
        const auto t1 = Clock::now();
        if (!ticket.accepted)
            continue;
        const auto response = ticket.response.get();
        const auto t2 = Clock::now();
        tracer.record("serve.direct", t0, t2, -1, id);
        if (response.status != serve::ServeStatus::Ok)
            continue;
        const double launch = response.run.wall_seconds * 1e3;
        out.ms.push_back(ms_between(t0, t2));
        out.submit_us.push_back(ms_between(t0, t1) * 1e3);
        out.queue_ms.push_back(ms_between(t0, t2) - launch);
        out.launch_ms.push_back(launch);
    }
    service.stop();
    return out;
}

}  // namespace

int
run_fleet_mixed(RunContext& context)
{
    Report& report = context.report;
    Tracer& tracer = context.tracer;
    Tracer untraced(false);
    const std::string run_dir =
        context.options.out_dir + "/fleet-" + std::to_string(getpid());

    Fleet fleet;
    std::vector<double> setup_seconds;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (rep > 0) {
            stop_fleet(fleet);
            fleet = Fleet{};
        }
        const double seconds =
            start_fleet(fleet, run_dir + "/setup" + std::to_string(rep),
                        rep == 0 ? tracer : untraced);
        if (seconds < 0) {
            stop_fleet(fleet);
            std::error_code ignored;
            std::filesystem::remove_all(run_dir, ignored);
            report.note("fleet failed to start");
            report.correct = false;
            return 1;
        }
        setup_seconds.push_back(seconds);
    }
    report.set("setup_s", median(setup_seconds), "s", setup_seconds.size(),
               "2 replicas, second one warm");

    // A warm-up pass, then cycles of (one client, all clients); figures
    // are medians over the cycles the host left quiet (run_cycles).
    std::uint64_t next_id = 1;
    const auto account = [&](const Traffic& pass) {
        for (const auto& sample : pass.samples) {
            ++report.attempted;
            if (!sample.ok)
                ++report.failed;
        }
    };
    account(run_traffic(*fleet.door, context.options.seed, next_id,
                        kWarmupSeconds, -1, untraced));
    std::vector<Record> records;
    std::vector<Sample> checked;  ///< Requests whose reply output was kept.
    const auto cycles = run_cycles<TrafficSummary>(
        context.options, tracer, report, kCycleSeconds,
        [&](int cycle, double seconds, Tracer& cycle_tracer) {
            Traffic pass = run_traffic(*fleet.door, context.options.seed,
                                       next_id, seconds, cycle, cycle_tracer);
            account(pass);
            const TrafficSummary summary = summarize(pass);
            for (auto& sample : pass.samples) {
                records.push_back(
                    {sample.ms, static_cast<std::uint32_t>(sample.reply_floats),
                     static_cast<std::uint16_t>(cycle),
                     static_cast<std::uint8_t>(sample.kernel),
                     static_cast<std::uint8_t>(sample.phase)});
                if (!sample.output.empty())
                    checked.push_back(std::move(sample));
            }
            return summary;
        });
    const auto door_stats = fleet.door->stats();
    stop_fleet(fleet);
    std::vector<ReplicaReport> replicas;
    double peak_rss = self_peak_rss_mb();
    for (const auto& path : fleet.report_paths) {
        replicas.push_back(read_report(path));
        // A replica that was killed or died writes no report: its
        // memory and counters would silently read 0.
        if (replicas.back().count("peak_rss_mb") == 0) {
            report.note("invalid run: no report from the replica behind " +
                        path);
            report.correct = false;
        }
        peak_rss += replicas.back()["peak_rss_mb"];
    }
    std::error_code ignored;
    std::filesystem::remove_all(run_dir, ignored);

    const std::string over = ", " + cycles_label(cycles);
    const std::string clients = std::to_string(kClients) + " clients";
    report.set("throughput_rps", kept_median(cycles, &TrafficSummary::rps),
               "req/s", 0, clients + " in a closed loop" + over);
    report.set("p50_ms", kept_median(cycles, &TrafficSummary::main_p50), "ms",
               kept_sum(cycles, &TrafficSummary::main_n), clients + over);
    // The tail is taken over every request of the kept cycles' 4-client
    // parts: a per-cycle tail mostly says whether that cycle met a host
    // stall.
    std::vector<double> main_ms;
    for (const auto& record : records) {
        if (record.phase == 1 && cycles[record.cycle].kept)
            main_ms.push_back(record.ms);
    }
    report.set("p99_ms", percentile(main_ms, supported_tail(main_ms.size())),
               "ms", main_ms.size(),
               tail_label(supported_tail(main_ms.size())) + ", " + clients +
                   ", kept cycles pooled");
    report.set("p50_ms_light",
               kept_median(cycles, &TrafficSummary::light_p50), "ms",
               kept_sum(cycles, &TrafficSummary::light_n), "1 client" + over);
    report.set("peak_rss_mb", peak_rss, "MB", 0, "front door + replicas");

    // ---- Off the clock: local families for correctness and speedups. ---
    const Families families;
    const auto lists = families.variant_lists();
    const auto metrics = families.metrics();
    bool correct = true;
    QualityTally quality;
    ReplyCheck replies;
    for (const auto& sample : checked) {
        const auto& variants = lists[sample.kernel];
        replies.check(variants, sample.served_by, sample.seed, sample.output);
        quality.score(metrics[sample.kernel],
                      variants.front().run_fast(sample.seed).output,
                      sample.output);
    }
    correct &= replies.report(report);
    report_quality(report, quality);

    std::vector<double> wall_speedups;
    std::vector<double> modeled_speedups;
    std::vector<double> selected_us(kKernels.size());
    std::vector<double> exact_us(kKernels.size());
    for (std::size_t k = 0; k < kKernels.size(); ++k) {
        const auto& exact = lists[k].front();
        correct &= check_exact(context, "fleet-mixed/" + slug(kKernels[k]),
                               exact);
        const std::string label =
            dominant_label(checked, static_cast<int>(k));
        const runtime::Variant* selected = find_variant(lists[k], label);
        if (selected == nullptr)
            selected = &exact;
        std::vector<double> kernel_ms;
        for (const auto& record : records) {
            if (record.kernel == k && record.phase == 1)
                kernel_ms.push_back(record.ms);
        }
        std::printf("kernel %-26s selected %-58s p50 %.3f ms p99 %.3f ms "
                    "n=%zu\n",
                    kKernels[k].c_str(), selected->label.c_str(),
                    percentile(kernel_ms, 50.0), percentile(kernel_ms, 99.0),
                    kernel_ms.size());
        std::vector<double> exact_wall;
        std::vector<double> selected_wall;
        for (std::uint64_t i = 0; i < 40; ++i) {
            const auto seed = derive_seed(context.options.seed ^ 0x5eedull, i);
            exact_wall.push_back(timed(untraced, "", [&] { exact.run_fast(seed); }));
            selected_wall.push_back(
                timed(untraced, "", [&] { selected->run_fast(seed); }));
        }
        exact_us[k] = median(exact_wall) * 1e6;
        selected_us[k] = median(selected_wall) * 1e6;
        wall_speedups.push_back(exact_us[k] / selected_us[k]);
        const auto seed = kVerificationSeeds.front();
        modeled_speedups.push_back(exact.run(seed).modeled_cycles /
                                   selected->run(seed).modeled_cycles);
    }
    report.set("approx_wall_speedup", geomean(wall_speedups), "x",
               kKernels.size(), "geomean over the 4 kernels, same seeds");
    report.set("modeled_speedup", geomean(modeled_speedups), "x",
               kKernels.size(), "geomean over the 4 kernels");
    report_errors(report);

    if (tracer.enabled()) {
        std::vector<double> route_ms;
        std::vector<double> light_ms;
        for (const auto& record : records) {
            if (cycles[record.cycle].traced)
                (record.phase == 1 ? route_ms : light_ms).push_back(record.ms);
        }
        report.set("bench.trace_overhead_frac",
                   trace_overhead(cycles, &TrafficSummary::main_p50),
                   "fraction", 0, "p50, traced vs untraced cycles");
        report.set("bench.gen_lag_ms_p99", 0.0, "ms", 0,
                   "closed loop: no schedule to lag");
        report.set("net.route_us_p50", percentile(route_ms, 50.0) * 1e3, "us",
                   route_ms.size(), clients + ", traced cycles");
        report.set("net.route_us_p99", percentile(route_ms, 99.0) * 1e3, "us",
                   route_ms.size(), clients + ", traced cycles");

        // Codec cost at this workload's reply size.
        double floats = 0.0;
        std::size_t ok = 0;
        for (const auto& record : records) {
            if (record.ms != kMiss) {
                floats += static_cast<double>(record.reply_floats);
                ++ok;
            }
        }
        floats /= std::max<std::size_t>(1, ok);
        net::SubmitReply reply;
        reply.status = net::WireStatus::Ok;
        reply.served_by = "memo global/linear 16 entries";
        reply.replica = "replica-0";
        reply.output.assign(static_cast<std::size_t>(floats), 1.5f);
        const auto request = make_request(0, 42, true);
        std::vector<double> codec;
        for (int rep = 0; rep < 2000; ++rep) {
            const auto t0 = Clock::now();
            const auto decoded_request =
                net::SubmitRequest::decode(request.encode());
            const auto decoded_reply = net::SubmitReply::decode(reply.encode());
            const auto t1 = Clock::now();
            if (decoded_request && decoded_reply)
                codec.push_back(ms_between(t0, t1) * 1e3);
        }
        const double codec_us = median(codec);
        report.set("net.codec_us", codec_us, "us", codec.size(),
                   "request + reply encode and decode");
        report.set("net.reply_kb", floats * 4.0 / 1024.0, "KB", ok,
                   "mean reply output");
        report.set("net.requeues", static_cast<double>(door_stats.requeues),
                   "count");
        double routed_max = 0.0;
        double routed_sum = 0.0;
        for (const auto routed : door_stats.routed) {
            routed_max = std::max(routed_max, static_cast<double>(routed));
            routed_sum += static_cast<double>(routed);
        }
        report.set("net.route_skew",
                   routed_max / std::max(1.0, routed_sum / kReplicas), "x", 0,
                   "busiest replica / mean");

        const auto direct =
            run_direct(families, context.options.seed,
                       context.options.seconds * kLightShare / 2, tracer);
        const double direct_p50 = median(direct.ms);
        const double light_p50 = percentile(light_ms, 50.0);
        report.set("net.overhead_us", (light_p50 - direct_p50) * 1e3, "us",
                   direct.ms.size(), "1-client route p50 - direct submit p50");
        report.set("bench.residual_frac",
                   1.0 - (direct_p50 + codec_us / 1e3) / light_p50, "fraction",
                   0, "socket + front door share of 1-client route");
        report.set("serve.submit_us", median(direct.submit_us), "us",
                   direct.submit_us.size(), "direct, 1 client");
        report.set("serve.queue_ms_p50", percentile(direct.queue_ms, 50.0),
                   "ms", direct.queue_ms.size(), "direct, 1 client");
        report.set("serve.queue_ms_p99", percentile(direct.queue_ms, 99.0),
                   "ms", direct.queue_ms.size(), "direct, 1 client");
        report.set("serve.launch_ms_p50", percentile(direct.launch_ms, 50.0),
                   "ms", direct.launch_ms.size(), "direct, 1 client");

        ReplicaReport total;
        for (const auto& replica : replicas) {
            for (const auto& [key, value] : replica)
                total[key] += value;
        }
        const double served = std::max(1.0, total["served"]);
        report.set("serve.batch_mean",
                   total["batch_requests"] / std::max(1.0, total["batches"]),
                   "requests", static_cast<std::size_t>(total["batches"]));
        report.set("serve.coalesced_frac", total["coalesced_requests"] / served,
                   "fraction");
        report.set("serve.shadow_frac", total["shadow_runs"] / served,
                   "fraction");
        report.set("serve.degraded_frac", total["degraded_serves"] / served,
                   "fraction");
        report.set("serve.expired", total["deadline_expired"], "count");
        report.set("serve.rejected",
                   total["rejected"] +
                       static_cast<double>(door_stats.deadline_rejects +
                                           door_stats.rejected_no_replica),
                   "count");
        report.set("serve.cancelled_launches", total["cancelled_launches"],
                   "count");
        report.set("store.cold_register_s", replicas[0]["register_s"], "s", 0,
                   "replica 0, empty store");
        report.set("store.warm_register_s", replicas[1]["register_s"], "s", 0,
                   "replica 1, " +
                       std::to_string(static_cast<int>(replicas[1]["warm"])) +
                       " families restored");
        report.set("store.hits", total["store_hits"], "count");
        report.set("runtime.pipeline_us", selected_us[2], "us", 40,
                   "selected image_edges variant, fast");
        report.set("data.tier_over_exact", selected_us[3] / exact_us[3], "x",
                   40, "selected HotSpot precision plan / exact plan");

        probe_layers(context,
                     {{families.mean.get(), dominant_label(checked, 0)},
                      {families.kde.get(), dominant_label(checked, 1)}});
    }

    if (!correct)
        report.correct = false;
    return report.correct ? 0 : 1;
}

}  // namespace perfbench
