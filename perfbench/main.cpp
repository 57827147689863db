/// @file
/// perfbench: the wall-clock benchmark driver.
///
///   perfbench --workload serve-small|offline-apps|fleet-mixed --seed N
///             --seconds S --trace 0|1 [--out DIR] [--digests FILE]
///             [--write-digests]
///
/// Prints a metric table, then one JSON result object as the last line
/// of standard output; the same object and, in the traced run, every
/// recorded span are written under --out.  Exits non-zero on an
/// exact-output mismatch, an unresolved request or an invalid run.
/// Run it through perfbench/run.py, which builds it and pins the
/// environment.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload serve-small|offline-apps|"
                 "fleet-mixed --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--digests FILE] [--write-digests]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--replica") == 0)
        return perfbench::run_replica(argc - 2, argv + 2);

    perfbench::Options options;
    std::string digest_path = "perfbench/digests.txt";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--write-digests") {
            options.write_digests = true;
        } else if (!has_value) {
            return usage();
        } else if (arg == "--workload") {
            options.workload = argv[++i];
        } else if (arg == "--seed") {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::atoi(argv[++i]);
        } else if (arg == "--trace") {
            options.trace = std::atoi(argv[++i]) != 0;
        } else if (arg == "--out") {
            options.out_dir = argv[++i];
        } else if (arg == "--digests") {
            digest_path = argv[++i];
        } else {
            return usage();
        }
    }
    if (options.seconds < 1)
        return usage();

    std::filesystem::create_directories(options.out_dir);
    perfbench::Report report;
    perfbench::Tracer tracer(options.trace);
    perfbench::Digests digests(digest_path);
    perfbench::RunContext context{options, report, tracer, digests};

    const perfbench::HostSteal steal;
    int status = 0;
    if (options.workload == "serve-small")
        status = perfbench::run_serve_small(context);
    else if (options.workload == "offline-apps")
        status = perfbench::run_offline_apps(context);
    else if (options.workload == "fleet-mixed")
        status = perfbench::run_fleet_mixed(context);
    else
        return usage();

    report.set("bench.host_steal_frac", steal.fraction(), "fraction", 0,
               "CPU time the hypervisor gave other guests during the run");
    if (options.write_digests && !digests.save()) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     digest_path.c_str());
        status = 1;
    }
    report.note(std::to_string(digests.checked()) + " exact outputs checked, " +
                std::to_string(digests.mismatches()) + " mismatches");

    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-traced" : "");
    if (tracer.enabled()) {
        tracer.write(stem + "-spans.jsonl");
        report.note(std::to_string(tracer.size()) + " spans written to " +
                    stem + "-spans.jsonl");
    }
    report.print();
    const std::string result = report.json();
    std::ofstream(stem + ".json") << result << "\n";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return status;
}
