/// @file
/// KernelSession: one object owning a compiled kernel family end-to-end.
///
/// Callers used to hand-wire the same pipeline everywhere: run
/// core::compile_kernel, lower the exact kernel plus every generated
/// variant to bytecode, remember which lookup tables each variant needs,
/// bind them at every launch, and finally wrap the lot as
/// runtime::Variant closures for the tuner.  A KernelSession does all of
/// that once.  Bytecode is shared process-wide through vm::ProgramCache,
/// so constructing a second session over the same module costs no
/// recompilation, and table buffers are auto-bound into the ArgPack on
/// every run.
///
///     ir::Module -> KernelSession -> variants()/tuner() -> calibrate
///                                 -> family() -> runtime::warm_tuner.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/paraprox.h"
#include "core/variants.h"
#include "runtime/family.h"
#include "runtime/tuner.h"
#include "store/artifact_store.h"
#include "vm/bytecode.h"

namespace paraprox::runtime {

/// One launchable member of the family: the exact kernel or a generated
/// approximate variant, with its bytecode compiled and its table bindings
/// recorded.
struct SessionMember {
    std::string label;            ///< "exact" or the generated label.
    int aggressiveness = 0;
    std::string kernel_name;
    std::shared_ptr<const vm::Program> program;  ///< Cache-shared bytecode.
    std::vector<core::TableBinding> tables;      ///< Empty unless memoized.
};

/// Compile -> bind -> launch -> tune, unified.
///
/// The module reference passed to the constructor must outlive the
/// session (generated variants own their rewritten modules internally).
class KernelSession {
  public:
    KernelSession(const ir::Module& module, std::string kernel,
                  core::CompileOptions options);

    KernelSession(const KernelSession&) = delete;
    KernelSession& operator=(const KernelSession&) = delete;

    /// What the Paraprox compiler produced (detection, variants, notes).
    const core::KernelCompileResult& result() const { return result_; }

    /// Every launchable member; members()[0] is the exact kernel.
    const std::vector<SessionMember>& members() const { return members_; }

    /// The member whose label is @p label, or nullptr.
    const SessionMember* find_member(const std::string& label) const;

    /// Compiled bytecode for @p kernel_name of the session's source
    /// module, through the process-wide program cache.
    std::shared_ptr<const vm::Program>
    program(const std::string& kernel_name) const;

    const ir::Module& module() const { return *module_; }
    const std::string& kernel() const { return kernel_; }
    const core::CompileOptions& options() const { return options_; }

    /// Execute one member for @p plan on input @p seed: core::run_one
    /// over the member's program and lookup tables, priced under the
    /// session device model.
    VariantRun run_member(const SessionMember& member,
                          const core::LaunchPlan& plan, std::uint64_t seed,
                          vm::ExecMode mode =
                              vm::ExecMode::Instrumented) const;

    /// Batched serving entry point: core::run_many over the member's
    /// program and lookup tables — one Fast launch for every seed,
    /// outputs identical to seeds.size() run_member calls.
    std::vector<VariantRun> run_member_batch(
        const SessionMember& member, const core::LaunchPlan& plan,
        const std::vector<std::uint64_t>& seeds) const;

    /// Tuner-ready variant list over @p plan; variants[0] is exact.  The
    /// returned closures share ownership of the cached programs and copied
    /// table bindings, so they stay valid after the session is destroyed.
    std::vector<Variant> variants(const core::LaunchPlan& plan) const;

    /// One-call convenience: variants(plan) wrapped in a Tuner.  The TOQ
    /// defaults to the session's CompileOptions::toq when negative.
    Tuner tuner(const core::LaunchPlan& plan, Metric metric,
                double toq_percent = -1.0, int check_interval = 50) const;

    /// ir::fingerprint of the source module, computed once.
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// The store key under which this session's calibration is persisted:
    /// module fingerprint x kernel x device-model id x TOQ x metric
    /// (x store-format version, implicitly).
    store::StoreKey calibration_key(Metric metric,
                                    double toq_percent = -1.0) const;

    /// variants(plan) as a VariantFamily persisted under
    /// calibration_key(): the list is fixed, so the plan is empty and a
    /// warm start (runtime::warm_tuner) restores only the calibration.
    VariantFamily family(const core::LaunchPlan& plan, Metric metric,
                         double toq_percent = -1.0) const;

  private:
    const ir::Module* module_;
    std::string kernel_;
    core::CompileOptions options_;
    core::KernelCompileResult result_;
    std::vector<SessionMember> members_;
    std::uint64_t fingerprint_ = 0;
};

}  // namespace paraprox::runtime
