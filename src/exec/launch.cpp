#include "exec/launch.h"

#include <atomic>
#include <chrono>
#include <mutex>

#include "support/parallel.h"

namespace paraprox::exec {

ArgPack&
ArgPack::buffer(const std::string& name, Buffer& buf)
{
    buffers_[name] = &buf;
    return *this;
}

ArgPack&
ArgPack::packed(const std::string& name, data::PackedBuffer& buf)
{
    packed_[name] = &buf;
    return *this;
}

ArgPack&
ArgPack::scalar(const std::string& name, int value)
{
    scalars_[name] = vm::make_int(value);
    return *this;
}

ArgPack&
ArgPack::scalar(const std::string& name, float value)
{
    scalars_[name] = vm::make_float(value);
    return *this;
}

ArgPack&
ArgPack::shared(const std::string& name, std::int64_t elements)
{
    shared_sizes_[name] = elements;
    return *this;
}

Buffer*
ArgPack::find_buffer(const std::string& name) const
{
    auto it = buffers_.find(name);
    return it == buffers_.end() ? nullptr : it->second;
}

data::PackedBuffer*
ArgPack::find_packed(const std::string& name) const
{
    auto it = packed_.find(name);
    return it == packed_.end() ? nullptr : it->second;
}

const vm::Value*
ArgPack::find_scalar(const std::string& name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? nullptr : &it->second;
}

std::int64_t
ArgPack::find_shared(const std::string& name) const
{
    auto it = shared_sizes_.find(name);
    return it == shared_sizes_.end() ? 0 : it->second;
}

namespace {

/// Innermost ambient cancel tokens for this thread; see CancelScope.
thread_local CancelTokens tls_cancel_tokens;

}  // namespace

CancelScope::CancelScope(CancelTokens tokens)
    : previous_(tls_cancel_tokens)
{
    tls_cancel_tokens = tokens;
}

CancelScope::CancelScope(const vm::CancelToken* token)
    : single_(token), previous_(tls_cancel_tokens)
{
    tls_cancel_tokens = CancelTokens(&single_, 1);
}

CancelScope::~CancelScope()
{
    tls_cancel_tokens = previous_;
}

CancelTokens
current_cancel_tokens()
{
    return tls_cancel_tokens;
}

namespace {

/// Buffer views, shared sizes, and scalars for one ArgPack, resolved
/// against the program signature once per launch (or per batch member).
struct ResolvedArgs {
    std::vector<vm::BufferView> buffer_views;
    std::vector<std::int64_t> shared_sizes;
    std::vector<vm::Value> scalar_args;
};

ResolvedArgs
resolve_args(const vm::Program& program, const ArgPack& args)
{
    ResolvedArgs resolved;
    resolved.buffer_views.resize(program.buffers.size());
    resolved.shared_sizes.assign(program.buffers.size(), 0);
    for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
        const auto& info = program.buffers[slot];
        if (info.space == ir::AddrSpace::Shared) {
            resolved.shared_sizes[slot] = args.find_shared(info.name);
            PARAPROX_CHECK(resolved.shared_sizes[slot] > 0,
                           "missing __shared size for `" + info.name + "`");
        } else if (data::PackedBuffer* packed = args.find_packed(info.name)) {
            // A packed binding shadows an exact binding of the same name:
            // the data tier binds a plan's packed buffers over whatever
            // the application's bind_inputs installed.  Packed storage
            // only makes sense for float payloads; integer parameters
            // carry indices/counts and the safety analysis pins them
            // exact anyway.
            PARAPROX_CHECK(info.elem == ir::Scalar::F32,
                           "packed binding for non-F32 parameter `" +
                               info.name + "`");
            resolved.buffer_views[slot] = packed->view();
        } else {
            Buffer* buffer = args.find_buffer(info.name);
            PARAPROX_CHECK(buffer, "missing buffer argument `" + info.name +
                                       "`");
            PARAPROX_CHECK(buffer->elem_type() == info.elem,
                           "element type mismatch for `" + info.name + "`");
            resolved.buffer_views[slot] = buffer->view();
        }
    }

    resolved.scalar_args.resize(program.scalars.size());
    for (std::size_t i = 0; i < program.scalars.size(); ++i) {
        const vm::Value* value = args.find_scalar(program.scalars[i].name);
        PARAPROX_CHECK(value, "missing scalar argument `" +
                                  program.scalars[i].name + "`");
        resolved.scalar_args[i] = *value;
    }
    return resolved;
}

std::array<int, 3>
resolve_num_groups(const LaunchConfig& config)
{
    std::array<int, 3> num_groups;
    for (int dim = 0; dim < 3; ++dim) {
        PARAPROX_CHECK(config.local_size[dim] > 0 &&
                           config.global_size[dim] > 0,
                       "launch sizes must be positive");
        PARAPROX_CHECK(config.global_size[dim] % config.local_size[dim] == 0,
                       "global size must be divisible by local size");
        num_groups[dim] = config.global_size[dim] / config.local_size[dim];
    }
    return num_groups;
}

vm::GroupGeometry
geometry_for(const LaunchConfig& config, const std::array<int, 3>& num_groups,
             std::int64_t group_linear)
{
    vm::GroupGeometry geometry;
    geometry.local_size = config.local_size;
    geometry.num_groups = num_groups;
    geometry.group_id[0] = static_cast<int>(group_linear % num_groups[0]);
    geometry.group_id[1] =
        static_cast<int>((group_linear / num_groups[0]) % num_groups[1]);
    geometry.group_id[2] =
        static_cast<int>(group_linear / (static_cast<std::int64_t>(
                                            num_groups[0]) *
                                        num_groups[1]));
    return geometry;
}

/// The one group scheduler behind launch() and launch_batch(): every
/// group of every member is one task on the host pool, over the
/// concatenated index space.  @p observer is only ever set for a
/// one-member launch.
std::vector<LaunchResult>
schedule(const vm::Program& program, const std::vector<const ArgPack*>& batch,
         const LaunchConfig& config, LaunchObserver* observer)
{
    PARAPROX_CHECK(config.mode == vm::ExecMode::Instrumented ||
                       observer == nullptr,
                   "fast launches cannot attach a LaunchObserver");
    const std::size_t members = batch.size();
    if (members == 0)
        return {};

    // Per-member argument resolution; the program, geometry, and pool
    // dispatch are shared across the whole batch.
    std::vector<ResolvedArgs> resolved;
    resolved.reserve(members);
    for (const ArgPack* args : batch) {
        PARAPROX_CHECK(args != nullptr, "null ArgPack in launch batch");
        resolved.push_back(resolve_args(program, *args));
    }

    const std::array<int, 3> num_groups = resolve_num_groups(config);
    const std::int64_t member_groups =
        static_cast<std::int64_t>(num_groups[0]) * num_groups[1] *
        num_groups[2];

    // Per-member cancel tokens from the thread's ambient CancelScope
    // (member-order aligned), resolved here on the launching thread so
    // the closure-shaped serving paths still arm every launch they make.
    // A size mismatch disarms the scope rather than guessing which token
    // belongs to whom.
    CancelTokens scope_tokens = current_cancel_tokens();
    if (scope_tokens.size() != members)
        scope_tokens = {};
    const auto member_token = [&](std::size_t member)
        -> const vm::CancelToken* {
        return scope_tokens.empty() ? nullptr : scope_tokens[member];
    };

    // One abort flag and stat sink per member: a trap (or a scatter-
    // cancel — only expired members stop) is a member-local event, not a
    // batch-wide one — the other members' requests must still be
    // answered.  The abort flag is raised by the member's first trapping
    // (or cancelled) group and checked before each group starts, so a
    // trap early in a large NDRange doesn't burn cycles executing the
    // thousands of groups still queued behind it.
    struct MemberState {
        std::atomic<bool> abort{false};
        std::atomic<bool> trapped{false};
        std::atomic<bool> cancelled{false};
        std::atomic<std::int64_t> groups_completed{0};
        vm::ExecStats stats;
        std::string trap_message;
    };
    std::vector<MemberState> states(members);
    std::mutex merge_mutex;

    const auto start = std::chrono::steady_clock::now();

    parallel_for(members * static_cast<std::size_t>(member_groups),
                 [&](std::size_t task) {
        const std::size_t member = task / member_groups;
        const std::int64_t group_linear =
            static_cast<std::int64_t>(task % member_groups);
        MemberState& state = states[member];
        if (state.abort.load(std::memory_order_relaxed))
            return;
        const vm::CancelToken* cancel = member_token(member);
        // The abort flip happens under merge_mutex (like the trap path)
        // so a group finishing concurrently can never merge stats after
        // the member is already cancelled.
        const auto mark_cancelled = [&] {
            std::lock_guard<std::mutex> lock(merge_mutex);
            state.cancelled.store(true, std::memory_order_relaxed);
            state.abort.store(true, std::memory_order_relaxed);
        };
        if (cancel && cancel->cancelled()) {
            mark_cancelled();
            return;
        }

        const vm::GroupGeometry geometry =
            geometry_for(config, num_groups, group_linear);

        std::unique_ptr<vm::MemoryListener> listener;
        if (observer)
            listener = observer->make_group_listener(group_linear);

        vm::ExecStats group_stats;
        vm::GroupRunner runner(program, resolved[member].buffer_views,
                               resolved[member].scalar_args,
                               resolved[member].shared_sizes, geometry,
                               &group_stats, listener.get(), config.mode,
                               cancel);
        try {
            runner.run();
        } catch (const vm::CancelledError&) {
            mark_cancelled();
            return;
        } catch (const vm::TrapError& trap) {
            std::lock_guard<std::mutex> lock(merge_mutex);
            state.trapped.store(true, std::memory_order_relaxed);
            if (!state.abort.exchange(true, std::memory_order_relaxed))
                state.trap_message = trap.what();
            return;
        }
        state.groups_completed.fetch_add(1, std::memory_order_relaxed);

        // A group finishing after the trap landed contributes nothing:
        // the member's result is discarded, so merging its stats (or
        // feeding the observer) would only skew the abandoned
        // measurement.
        std::lock_guard<std::mutex> lock(merge_mutex);
        if (state.abort.load(std::memory_order_relaxed))
            return;
        state.stats.merge(group_stats);
        if (observer && listener)
            observer->on_group_complete(*listener);
    });

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::vector<LaunchResult> results(members);
    for (std::size_t i = 0; i < members; ++i) {
        results[i].stats = states[i].stats;
        results[i].trapped =
            states[i].trapped.load(std::memory_order_relaxed);
        results[i].trap_message = std::move(states[i].trap_message);
        results[i].wall_seconds = wall / static_cast<double>(members);
        results[i].cancelled =
            states[i].cancelled.load(std::memory_order_relaxed);
        if (results[i].cancelled) {
            if (const vm::CancelToken* cancel = member_token(i))
                results[i].cancel_reason = cancel->reason();
        }
        results[i].groups_completed =
            states[i].groups_completed.load(std::memory_order_relaxed);
        results[i].groups_total = member_groups;
    }
    return results;
}

}  // namespace

LaunchResult
launch(const vm::Program& program, const ArgPack& args,
       const LaunchConfig& config, LaunchObserver* observer)
{
    return std::move(schedule(program, {&args}, config, observer).front());
}

std::vector<LaunchResult>
launch_batch(const vm::Program& program,
             const std::vector<const ArgPack*>& batch,
             const LaunchConfig& config)
{
    return schedule(program, batch, config, nullptr);
}

}  // namespace paraprox::exec
