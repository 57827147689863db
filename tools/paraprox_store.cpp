/// @file
/// paraprox_store: operator CLI for the on-disk artifact store.
///
/// Subcommands:
///   list    [--dir DIR]         one line per record: kind, size, verdict,
///                               canonical key
///   inspect [--dir DIR] FILE    header + key of a single record file;
///                               calibrations add metric, TOQ and one
///                               line per variant (fleet records add the
///                               version and quarantined labels); exit 1
///                               unless the record decodes
///   verify  [--dir DIR]         exit 1 if any record fails validation
///   prune   [--dir DIR] [--all] delete invalid records (and stray temp
///                               files); --all deletes valid ones too
///
/// DIR defaults to $PARAPROX_STORE_DIR.  See docs/store.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "store/artifact_store.h"
#include "store/format.h"

namespace {

using paraprox::store::ArtifactKind;
using paraprox::store::ArtifactStore;

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <list|inspect|verify|prune> [--dir DIR] "
                 "[--all] [file]\n"
                 "DIR defaults to $PARAPROX_STORE_DIR.\n",
                 argv0);
    return 2;
}

const char*
kind_name(ArtifactKind kind)
{
    switch (kind) {
        case ArtifactKind::Program:
            return "program";
        case ArtifactKind::Table:
            return "table";
        case ArtifactKind::Calibration:
            return "calibration";
        case ArtifactKind::FleetCalibration:
            return "fleet";
        case ArtifactKind::Lease:
            return "lease";
    }
    return "unknown";
}

/// One line per calibrated variant, '*' on the selection.  Every family
/// names its variants for what they are — a pipeline's joint label names
/// each stage's member, a data tier's names each packed buffer's codec —
/// so one printer serves them all.
void
print_profiles(const paraprox::runtime::CalibrationState& calibration)
{
    for (std::size_t i = 0; i < calibration.profiles.size(); ++i) {
        const auto& profile = calibration.profiles[i];
        const bool selected =
            static_cast<std::size_t>(calibration.selected) == i;
        std::printf("variant:  %c %-60s q=%.2f%% speedup=%.2fx%s\n",
                    selected ? '*' : ' ', profile.label.c_str(),
                    profile.quality, profile.speedup,
                    profile.meets_toq ? "" : " (below TOQ)");
    }
}

/// Calibration payloads: what a warm start will restore.
bool
print_calibration(const std::vector<std::uint8_t>& payload)
{
    std::string key;
    const auto artifact =
        paraprox::store::inspect_calibration(payload, &key);
    if (!artifact)
        return false;
    std::printf("key:      %s\n", key.c_str());
    std::printf("metric:   %s\n", artifact->metric.c_str());
    std::printf("toq:      %.2f%%\n", artifact->toq);
    print_profiles(artifact->calibration);
    return true;
}

/// Fleet payloads: the published version and the quarantine verdicts
/// every replica adopts with it.
bool
print_fleet_calibration(const std::vector<std::uint8_t>& payload)
{
    std::string key;
    const auto artifact =
        paraprox::store::inspect_fleet_calibration(payload, &key);
    if (!artifact)
        return false;
    std::printf("key:      %s\n", key.c_str());
    std::printf("metric:   %s\n", artifact->metric.c_str());
    std::printf("toq:      %.2f%%\n", artifact->toq);
    std::printf("version:  %llu\n",
                static_cast<unsigned long long>(artifact->version));
    std::printf("quarantined:");
    for (const auto& label : artifact->quarantined)
        std::printf(" %s", label.c_str());
    std::printf("%s\n", artifact->quarantined.empty() ? " (none)" : "");
    print_profiles(artifact->calibration);
    return true;
}

int
cmd_list(const ArtifactStore& store, bool verify_mode)
{
    const auto entries = store.list();
    std::size_t invalid = 0;
    for (const auto& entry : entries) {
        if (!entry.valid)
            ++invalid;
        std::printf("%-11s %8ju B  %-7s %s\n", kind_name(entry.kind),
                    static_cast<std::uintmax_t>(entry.size_bytes),
                    entry.valid ? "ok" : "INVALID",
                    entry.key.empty() ? entry.file.filename().c_str()
                                      : entry.key.c_str());
    }
    std::printf("%zu record(s), %zu invalid, in %s\n", entries.size(),
                invalid, store.dir().c_str());
    return verify_mode && invalid != 0 ? 1 : 0;
}

int
cmd_inspect(const std::filesystem::path& file)
{
    const auto bytes = paraprox::store::read_file_bytes(file);
    if (!bytes) {
        std::fprintf(stderr, "cannot read %s\n", file.c_str());
        return 1;
    }
    const auto info = paraprox::store::probe_record(*bytes);
    std::printf("file:     %s (%zu bytes)\n", file.c_str(), bytes->size());
    std::printf("kind:     %s\n", kind_name(info.kind));
    std::printf("version:  %u (current %u)\n", info.version,
                paraprox::store::kFormatVersion);
    std::printf("payload:  %ju bytes\n",
                static_cast<std::uintmax_t>(info.payload_size));
    std::printf("verdict:  %s\n", info.valid ? "ok" : "INVALID");
    if (!info.valid)
        return 1;
    const auto payload = paraprox::store::decode_record(*bytes, info.kind);
    if (!payload)
        return 1;
    if (info.kind == ArtifactKind::Calibration)
        return print_calibration(*payload) ? 0 : 1;
    if (info.kind == ArtifactKind::FleetCalibration)
        return print_fleet_calibration(*payload) ? 0 : 1;
    // Every payload leads with its canonical key string.
    paraprox::store::ByteReader reader(payload->data(), payload->size());
    const std::string key = reader.str();
    if (!reader.ok())
        return 1;
    std::printf("key:      %s\n", key.c_str());
    return 0;
}

int
cmd_prune(const ArtifactStore& store, bool everything)
{
    const std::size_t removed = store.prune(everything);
    std::printf("removed %zu file(s) from %s\n", removed,
                store.dir().c_str());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string command = argv[1];

    std::string dir;
    if (const char* env = std::getenv("PARAPROX_STORE_DIR"))
        dir = env;
    bool all = false;
    std::string file;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dir" && i + 1 < argc) {
            dir = argv[++i];
        } else if (arg == "--all") {
            all = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            file = arg;
        }
    }

    if (command == "inspect") {
        if (file.empty())
            return usage(argv[0]);
        std::filesystem::path path = file;
        if (!path.has_parent_path() && !dir.empty())
            path = std::filesystem::path(dir) / path;
        return cmd_inspect(path);
    }

    if (dir.empty()) {
        std::fprintf(stderr,
                     "no store directory: pass --dir or set "
                     "PARAPROX_STORE_DIR\n");
        return 2;
    }
    const ArtifactStore store{std::filesystem::path(dir)};
    if (command == "list")
        return cmd_list(store, /*verify_mode=*/false);
    if (command == "verify")
        return cmd_list(store, /*verify_mode=*/true);
    if (command == "prune")
        return cmd_prune(store, all);
    return usage(argv[0]);
}
