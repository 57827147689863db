#include "runtime/session.h"

#include "ir/printer.h"
#include "vm/program_cache.h"

namespace paraprox::runtime {

KernelSession::KernelSession(const ir::Module& module, std::string kernel,
                             core::CompileOptions options)
    : module_(&module), kernel_(std::move(kernel)),
      options_(std::move(options))
{
    fingerprint_ = ir::fingerprint(*module_);

    // Give the compiler a memo-table tier when the global artifact store
    // is configured and the caller did not wire their own: a stored table
    // replaces the table-size search and the shrink-size re-tuning.  The
    // table contents are device-independent, but the device id stays in
    // the key (it already gates which candidates are profitable) so every
    // component of a kernel's artifact set invalidates together.
    if (auto store = store::ArtifactStore::global();
        store && !options_.table_lookup) {
        auto key_for = [fingerprint = fingerprint_, kernel = kernel_,
                        device = options_.device.name, toq = options_.toq,
                        max_bits = options_.max_table_bits](
                           const std::string& callee, int shrink) {
            store::StoreKey key;
            key.module_fingerprint = fingerprint;
            key.kernel = kernel;
            key.device = device;
            key.toq = toq;
            key.detail = "memo:" + callee + "#" +
                         std::to_string(shrink) +
                         ":maxbits=" + std::to_string(max_bits);
            return key;
        };
        options_.table_lookup = [store, key_for](
                                    const std::string& callee,
                                    int shrink) {
            return store->load_table(key_for(callee, shrink));
        };
        options_.table_publish = [store, key_for](
                                     const std::string& callee, int shrink,
                                     const memo::LookupTable& table) {
            store->save_table(key_for(callee, shrink), table);
        };
    }

    result_ = core::compile_kernel(*module_, kernel_, options_);

    auto& cache = vm::ProgramCache::global();
    members_.reserve(result_.generated.size() + 1);
    members_.push_back({"exact", 0, kernel_,
                        cache.get_or_compile(*module_, kernel_), {}});
    for (const auto& generated : result_.generated) {
        members_.push_back({generated.label, generated.aggressiveness,
                            generated.kernel_name,
                            cache.get_or_compile(generated.module,
                                                 generated.kernel_name),
                            generated.tables});
    }
}

const SessionMember*
KernelSession::find_member(const std::string& label) const
{
    for (const auto& member : members_) {
        if (member.label == label)
            return &member;
    }
    return nullptr;
}

std::shared_ptr<const vm::Program>
KernelSession::program(const std::string& kernel_name) const
{
    return vm::ProgramCache::global().get_or_compile(*module_, kernel_name);
}

VariantRun
KernelSession::run_member(const SessionMember& member,
                          const core::LaunchPlan& plan, std::uint64_t seed,
                          vm::ExecMode mode) const
{
    return core::run_one(*member.program, member.tables, plan,
                         options_.device, seed, mode);
}

std::vector<VariantRun>
KernelSession::run_member_batch(const SessionMember& member,
                                const core::LaunchPlan& plan,
                                const std::vector<std::uint64_t>& seeds) const
{
    return core::run_many(*member.program, member.tables, plan, seeds);
}

std::vector<Variant>
KernelSession::variants(const core::LaunchPlan& plan) const
{
    // The bridge fetches every program from the shared cache, where this
    // session already compiled them, so this is binding-only work.  The
    // closures own copies of everything they touch and outlive the
    // session.
    return core::make_variants(*module_, kernel_, result_.generated, plan,
                               options_.device);
}

Tuner
KernelSession::tuner(const core::LaunchPlan& plan, Metric metric,
                     double toq_percent, int check_interval) const
{
    const double toq = toq_percent < 0.0 ? options_.toq : toq_percent;
    return Tuner(variants(plan), metric, toq, check_interval);
}

store::StoreKey
KernelSession::calibration_key(Metric metric, double toq_percent) const
{
    store::StoreKey key;
    key.module_fingerprint = fingerprint_;
    key.kernel = kernel_;
    key.device = options_.device.name;
    key.toq = toq_percent < 0.0 ? options_.toq : toq_percent;
    key.metric = to_string(metric);
    key.detail = "calibration";
    return key;
}

VariantFamily
KernelSession::family(const core::LaunchPlan& plan, Metric metric,
                      double toq_percent) const
{
    const double toq = toq_percent < 0.0 ? options_.toq : toq_percent;
    return fixed_family(variants(plan), metric, toq,
                        calibration_key(metric, toq));
}

}  // namespace paraprox::runtime
