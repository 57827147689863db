/// @file
/// Kernel launches: bind arguments by parameter name, split the NDRange
/// into work-groups, and execute groups in parallel on the host thread
/// pool.

#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/packed_buffer.h"
#include "exec/buffer.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

namespace paraprox::exec {

/// NDRange shape of a launch.  global_size must be divisible by local_size
/// in every dimension.
struct LaunchConfig {
    std::array<int, 3> global_size{1, 1, 1};
    std::array<int, 3> local_size{1, 1, 1};
    /// Execution mode for every work-group.  Fast mode is incompatible
    /// with a LaunchObserver (no listener callbacks) and reports only
    /// ExecStats::total_instructions.
    vm::ExecMode mode = vm::ExecMode::Instrumented;

    static LaunchConfig
    linear(int global, int local)
    {
        return {{global, 1, 1}, {local, 1, 1}};
    }

    static LaunchConfig
    grid2d(int gx, int gy, int lx, int ly)
    {
        return {{gx, gy, 1}, {lx, ly, 1}};
    }
};

/// Named kernel arguments.  Buffers are bound by reference and must outlive
/// the launch; __shared parameters are bound to an element count.  A
/// packed() binding substitutes a lossily-stored data::PackedBuffer for an
/// F32 parameter (the VM transcodes on Ld/St) and shadows any exact
/// binding of the same name — the data tier packs over the application's
/// own bindings.
class ArgPack {
  public:
    ArgPack& buffer(const std::string& name, Buffer& buf);
    ArgPack& packed(const std::string& name, data::PackedBuffer& buf);
    ArgPack& scalar(const std::string& name, int value);
    ArgPack& scalar(const std::string& name, float value);
    ArgPack& shared(const std::string& name, std::int64_t elements);

    Buffer* find_buffer(const std::string& name) const;
    data::PackedBuffer* find_packed(const std::string& name) const;
    const vm::Value* find_scalar(const std::string& name) const;
    std::int64_t find_shared(const std::string& name) const;  ///< 0 if absent

  private:
    std::map<std::string, Buffer*> buffers_;
    std::map<std::string, data::PackedBuffer*> packed_;
    std::map<std::string, vm::Value> scalars_;
    std::map<std::string, std::int64_t> shared_sizes_;
};

/// Per-launch observer supplying per-group memory listeners; implemented by
/// device models to price memory traffic.
class LaunchObserver {
  public:
    virtual ~LaunchObserver() = default;

    /// Create the listener for one work-group (called concurrently).
    virtual std::unique_ptr<vm::MemoryListener>
    make_group_listener(std::int64_t group_linear) = 0;

    /// Absorb a finished group's listener (serialized by the launcher).
    virtual void on_group_complete(vm::MemoryListener& listener) = 0;
};

/// Outcome of a launch.
struct LaunchResult {
    vm::ExecStats stats;
    double wall_seconds = 0.0;
    bool trapped = false;
    std::string trap_message;
    /// The launch's cancel token fired: remaining groups were skipped, no
    /// stats were merged, and output buffers may be partially written.
    bool cancelled = false;
    /// Why (valid when cancelled; CancelReason::None otherwise).
    vm::CancelReason cancel_reason = vm::CancelReason::None;
    /// Work-groups that ran to completion / total groups in the NDRange.
    /// completed < total on a trapped or cancelled launch measures how
    /// much CPU the abort actually saved — the serving layer's "wasted
    /// work" accounting reads it.
    std::int64_t groups_completed = 0;
    std::int64_t groups_total = 0;
};

/// Cancel tokens for a launch's members, index-aligned with the members
/// (a single launch is a batch of one).  Entries may be null
/// (uncancellable member).
using CancelTokens = std::span<const vm::CancelToken* const>;

/// RAII ambient cancel tokens: every launch this thread performs while
/// the scope is alive observes them.  This is how the serving layer arms
/// per-request cancellation without threading a token through every
/// Variant closure.  A launch of N members uses the tokens only when the
/// scope holds exactly N; any other size disarms the scope for that
/// launch (never misattributes a token), so an empty scope disarms every
/// launch.  Nested scopes shadow, and the tokens are resolved at launch
/// entry on the launching thread (pool workers inherit them by capture).
/// A fired token stops its member within one group round: queued groups
/// are skipped, running groups bail at their next control transfer, and
/// no stats are merged.
class CancelScope {
  public:
    /// @p tokens must outlive the scope.
    explicit CancelScope(CancelTokens tokens);
    /// One-member scope: arms every single-member launch with @p token.
    explicit CancelScope(const vm::CancelToken* token);
    ~CancelScope();

    CancelScope(const CancelScope&) = delete;
    CancelScope& operator=(const CancelScope&) = delete;

  private:
    const vm::CancelToken* single_ = nullptr;
    CancelTokens previous_;
};

/// The innermost ambient tokens on this thread (empty when no scope is
/// active).  Launches consult these; exposed for tests.
CancelTokens current_cancel_tokens();

/// Execute @p program over @p config with @p args: a one-member
/// launch_batch that may carry a @p observer.
///
/// Safety: vm::TrapError raised by any work-group aborts the launch and is
/// reported via LaunchResult::trapped (output buffers may be partially
/// written); other exceptions propagate.  Groups that have not started when
/// the trap lands are skipped rather than executed, and LaunchResult::stats
/// never includes partial counts from trapped or skipped groups.
LaunchResult launch(const vm::Program& program, const ArgPack& args,
                    const LaunchConfig& config,
                    LaunchObserver* observer = nullptr);

/// Execute @p program once per ArgPack in @p batch, as one launch over
/// the concatenated index space (batch.size() x the per-member group
/// count): every group of every member is one task on the host pool, so
/// a batch of small NDRanges fills the machine the way one large NDRange
/// does, and the per-launch fixed cost is paid once.
///
/// Members are independent: a vm::TrapError in member i's groups aborts
/// only that member (its result reports trapped; its remaining groups are
/// skipped) while every other member runs to completion.  Stats never
/// include partial counts from trapped or skipped groups.  No observer:
/// batched launches serve, they do not price — each member's
/// wall_seconds reports the whole batch's wall clock divided by the
/// batch size (the amortized cost, which is the number a serving layer
/// wants).  Member i observes the ambient CancelScope's token i when the
/// scope holds batch.size() tokens.
std::vector<LaunchResult> launch_batch(
    const vm::Program& program, const std::vector<const ArgPack*>& batch,
    const LaunchConfig& config);

}  // namespace paraprox::exec
