#include "vm/vm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "support/faultinject.h"

namespace paraprox::vm {

namespace {

/// Atomic read-modify-write on a 4-byte word shared between host threads.
template <typename ApplyFn>
std::int32_t
atomic_rmw(std::int32_t* word, ApplyFn apply)
{
    std::atomic_ref<std::int32_t> ref(*word);
    std::int32_t old_word = ref.load(std::memory_order_relaxed);
    for (;;) {
        const std::int32_t new_word = apply(old_word);
        if (ref.compare_exchange_weak(old_word, new_word,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
            return old_word;
        }
    }
}

float
as_float(std::int32_t word)
{
    return std::bit_cast<float>(word);
}

std::int32_t
as_word(float value)
{
    return std::bit_cast<std::int32_t>(value);
}

/// float -> int with GPU `__float2int_rz` semantics: truncate toward zero,
/// saturate out-of-range values, and map NaN to 0.  A plain static_cast is
/// undefined behaviour for NaN and for values outside [INT32_MIN, INT32_MAX].
std::int32_t
float_to_int_rz(float value)
{
    if (std::isnan(value))
        return 0;
    // 2^31 is exactly representable as float; every float >= it is out of
    // int32 range.  INT32_MIN itself is representable, so only values
    // strictly below it saturate.
    if (value >= 2147483648.0f)
        return std::numeric_limits<std::int32_t>::max();
    if (value < -2147483648.0f)
        return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(value);
}

/// Integer arithmetic wraps mod 2^32 (two's complement), like GPU
/// hardware: computed through uint32 so overflow is defined behaviour
/// rather than C++ signed-overflow UB.
inline std::int32_t
add32(std::int32_t a, std::int32_t b)
{
    return static_cast<std::int32_t>(std::uint32_t(a) + std::uint32_t(b));
}

inline std::int32_t
sub32(std::int32_t a, std::int32_t b)
{
    return static_cast<std::int32_t>(std::uint32_t(a) - std::uint32_t(b));
}

inline std::int32_t
mul32(std::int32_t a, std::int32_t b)
{
    return static_cast<std::int32_t>(std::uint32_t(a) * std::uint32_t(b));
}

/// Left shift through uint32 so a negative value or a shift producing a
/// sign-bit change is well-defined (wraps mod 2^32, like GPU hardware).
/// Shift counts are masked to 5 bits, matching NVIDIA/AMD ISA behaviour.
std::int32_t
shift_left(std::int32_t value, std::int32_t count)
{
    const unsigned sh = static_cast<std::uint32_t>(count) & 31u;
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(value)
                                     << sh);
}

/// Arithmetic (sign-filling) right shift implemented on uint32 so the
/// semantics don't depend on the implementation-defined behaviour of `>>`
/// on negative operands.
std::int32_t
shift_right_arith(std::int32_t value, std::int32_t count)
{
    const unsigned sh = static_cast<std::uint32_t>(count) & 31u;
    std::uint32_t word = static_cast<std::uint32_t>(value) >> sh;
    if (value < 0 && sh != 0)
        word |= ~std::uint32_t{0} << (32u - sh);
    return static_cast<std::int32_t>(word);
}

/// Load one element through the view's storage codec.  The Exact branch is
/// the original word load; packed views decode to fp32 (packed buffers are
/// restricted to F32 elements at launch time, so the register image is
/// always a float's bit pattern).
inline std::int32_t
codec_load(const BufferView& view, std::int64_t index)
{
    if (view.codec == data::Codec::Exact) [[likely]]
        return view.data[index];
    return as_word(
        data::load_element(view.codec, view.data, index, view.quant));
}

/// Store one element through the view's storage codec.
inline void
codec_store(BufferView& view, std::int64_t index, std::int32_t word)
{
    if (view.codec == data::Codec::Exact) [[likely]] {
        view.data[index] = word;
        return;
    }
    data::store_element(view.codec, view.data, index, as_float(word),
                        view.quant);
}

/// Evaluate the canonical compare opcode carried in a CmpJz's d field.
std::int32_t
eval_compare(Opcode op, Value lhs, Value rhs)
{
    switch (op) {
      case Opcode::LtI: return lhs.i < rhs.i;
      case Opcode::LeI: return lhs.i <= rhs.i;
      case Opcode::GtI: return lhs.i > rhs.i;
      case Opcode::GeI: return lhs.i >= rhs.i;
      case Opcode::EqI: return lhs.i == rhs.i;
      case Opcode::NeI: return lhs.i != rhs.i;
      case Opcode::LtF: return lhs.f < rhs.f;
      case Opcode::LeF: return lhs.f <= rhs.f;
      case Opcode::GtF: return lhs.f > rhs.f;
      case Opcode::GeF: return lhs.f >= rhs.f;
      case Opcode::EqF: return lhs.f == rhs.f;
      case Opcode::NeF: return lhs.f != rhs.f;
      default:
        PARAPROX_ASSERT(false, "CmpJz carries a non-compare opcode");
        return 0;
    }
}

}  // namespace

GroupRunner::GroupRunner(const Program& program,
                         std::vector<BufferView> global_buffers,
                         const std::vector<Value>& scalar_args,
                         const std::vector<std::int64_t>& shared_sizes,
                         const GroupGeometry& geometry, ExecStats* stats,
                         MemoryListener* listener, ExecMode mode,
                         const CancelToken* cancel)
    : program_(program), buffers_(std::move(global_buffers)),
      scalar_args_(scalar_args), geometry_(geometry), stats_(stats),
      listener_(listener), mode_(mode), cancel_(cancel)
{
    PARAPROX_CHECK(buffers_.size() == program.buffers.size(),
                   "kernel buffer argument count mismatch");
    PARAPROX_CHECK(mode_ == ExecMode::Instrumented || listener_ == nullptr,
                   "fast execution cannot deliver memory-listener "
                   "callbacks; use ExecMode::Instrumented");
    PARAPROX_CHECK(scalar_args_.size() == program.scalars.size(),
                   "kernel scalar argument count mismatch");
    // Allocate per-group storage for __shared buffers.
    for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
        if (program.buffers[slot].space == ir::AddrSpace::Shared) {
            PARAPROX_CHECK(slot < shared_sizes.size() &&
                               shared_sizes[slot] > 0,
                           "missing size for __shared buffer `" +
                               program.buffers[slot].name + "`");
            shared_storage_.emplace_back(shared_sizes[slot], 0);
            buffers_[slot] = {shared_storage_.back().data(),
                              static_cast<std::int64_t>(shared_sizes[slot])};
        }
    }
}

BufferView&
GroupRunner::buffer(int slot)
{
    return buffers_[slot];
}

void
GroupRunner::check_cancel() const
{
    if (cancel_ && cancel_->cancelled()) {
        throw CancelledError("launch cancelled in kernel `" +
                             program_.kernel_name + "`");
    }
}

void
GroupRunner::run()
{
    // Chaos-testing site: manufacture a trap before any work-item runs, so
    // the trap surfaces through the same launch/abort machinery as a real
    // divergent barrier or budget overrun.
    if (fault::fire("vm.trap", program_.kernel_name)) {
        throw TrapError("injected fault: vm.trap in kernel `" +
                        program_.kernel_name + "`");
    }

    // Chaos-testing site: spin like a pathological kernel stuck in a loop
    // the instruction budget has not caught yet.  Only cooperative
    // cancellation ends it promptly — exactly what the hung-launch
    // watchdog exists to deliver.  A hard wall ceiling below keeps an
    // unwatched hang from stalling a test run forever; giving up that way
    // is a trap (the kernel really is pathological).
    if (fault::fire("vm.hang", program_.kernel_name)) {
        const auto hang_started = std::chrono::steady_clock::now();
        constexpr auto kHangGiveUp = std::chrono::seconds(20);
        for (;;) {
            check_cancel();
            if (std::chrono::steady_clock::now() - hang_started >
                kHangGiveUp) {
                throw TrapError("injected fault: vm.hang in kernel `" +
                                program_.kernel_name +
                                "` ran unwatched past its ceiling");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    const int count = geometry_.local_count();
    // Pick the instrumented or fast instantiation once; the per-item branch
    // is negligible next to the per-instruction work it removes.
    const bool instrumented = mode_ == ExecMode::Instrumented;
    const auto step = [&](ItemState& item, const std::array<int, 3>& lid,
                          bool stop_at_barrier) {
        return instrumented ? run_item<true>(item, lid, stop_at_barrier)
                            : run_item<false>(item, lid, stop_at_barrier);
    };
    const auto make_local_id = [&](int linear) {
        std::array<int, 3> local_id;
        local_id[0] = linear % geometry_.local_size[0];
        local_id[1] = (linear / geometry_.local_size[0]) %
                      geometry_.local_size[1];
        local_id[2] = linear / (geometry_.local_size[0] *
                                geometry_.local_size[1]);
        return local_id;
    };

    if (!program_.has_barrier) {
        // Independent work-items: run each to completion, reusing one
        // register file.
        ItemState item;
        item.regs.resize(program_.num_regs);
        for (int linear = 0; linear < count; ++linear) {
            check_cancel();
            item.pc = 0;
            item.halted = false;
            for (std::size_t s = 0; s < program_.scalars.size(); ++s)
                item.regs[program_.scalars[s].reg] = scalar_args_[s];
            step(item, make_local_id(linear), false);
        }
        final_regs_ = item.regs;
    } else {
        // Cooperative execution in barrier-delimited rounds.
        std::vector<ItemState> items(count);
        std::vector<std::array<int, 3>> local_ids(count);
        for (int linear = 0; linear < count; ++linear) {
            items[linear].regs.resize(program_.num_regs);
            for (std::size_t s = 0; s < program_.scalars.size(); ++s)
                items[linear].regs[program_.scalars[s].reg] =
                    scalar_args_[s];
            local_ids[linear] = make_local_id(linear);
        }
        for (;;) {
            check_cancel();
            int at_barrier = 0;
            int halted = 0;
            for (int linear = 0; linear < count; ++linear) {
                ItemState& item = items[linear];
                if (item.halted) {
                    ++halted;
                    continue;
                }
                if (step(item, local_ids[linear], true))
                    ++at_barrier;
                else
                    ++halted;
            }
            if (at_barrier == 0) {
                if (!items.empty())
                    final_regs_ = items.back().regs;
                break;
            }
            // Some work-items reached the barrier while others exited:
            // divergent barrier.
            if (halted != 0) {
                throw TrapError("divergent barrier in kernel `" +
                                program_.kernel_name + "`");
            }
        }
    }

    // Chaos-testing site: silently poison the kernel's output so the
    // corruption is only catchable by a quality audit, not by a trap.
    // quality_percent skips non-finite pairs and scores an all-NaN output
    // as 0, so the whole first global buffer is poisoned, not one element.
    if (fault::fire("vm.nan", program_.kernel_name)) {
        const std::int32_t nan_word =
            as_word(std::numeric_limits<float>::quiet_NaN());
        for (std::size_t slot = 0; slot < program_.buffers.size(); ++slot) {
            if (program_.buffers[slot].space == ir::AddrSpace::Global &&
                buffers_[slot].size > 0) {
                // Fill the physical words, not the logical element count:
                // a packed view backs fewer words than elements.
                std::fill_n(buffers_[slot].data,
                            buffers_[slot].storage_words(), nan_word);
                break;
            }
        }
    }

    if (stats_) {
        // Merge once per group; the launch layer synchronizes.
        stats_->merge(local_stats_);
    }
}

template <bool kInstrumented>
bool
GroupRunner::run_item(ItemState& item, const std::array<int, 3>& local_id,
                      bool stop_at_barrier)
{
    // Fast mode runs the fused stream when the compiler built one;
    // hand-assembled test programs fall back to the canonical code.
    const std::vector<Instr>& stream =
        (!kInstrumented && !program_.fast_code.empty()) ? program_.fast_code
                                                        : program_.code;
    const Instr* code = stream.data();
    const auto code_size = static_cast<std::int64_t>(stream.size());
    Value* regs = item.regs.data();
    [[maybe_unused]] auto& counts = local_stats_.opcode_counts;
    std::uint64_t executed = 0;

    const std::int64_t group_linear = geometry_.group_linear();
    const std::int64_t global_linear =
        group_linear * geometry_.local_count() +
        (static_cast<std::int64_t>(local_id[2]) * geometry_.local_size[1] +
         local_id[1]) * geometry_.local_size[0] + local_id[0];

    // In fast mode the runaway-loop budget is only compared at control
    // transfers (Jmp/Jz/CmpJz): straight-line code strictly advances pc, so
    // any unbounded execution must keep taking jumps, and every jump sees
    // the check.  `executed` itself still counts every dispatch.
    const auto check_budget = [&executed] {
        if (executed > kMaxInstructionsPerItem)
            throw TrapError("instruction budget exceeded (runaway loop?)");
    };

    std::int64_t pc = item.pc;
    for (;;) {
        PARAPROX_ASSERT(pc >= 0 && pc < code_size, "pc out of range");
        const Instr& instr = code[pc];
        ++executed;
        if constexpr (kInstrumented) {
            ++counts[static_cast<int>(instr.op)];
            check_budget();
        }

        switch (instr.op) {
          case Opcode::Nop:
            break;
          case Opcode::LdImm:
            regs[instr.a] = instr.imm;
            break;
          case Opcode::Mov:
            regs[instr.a] = regs[instr.b];
            break;

          case Opcode::AddI:
            regs[instr.a].i = add32(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::SubI:
            regs[instr.a].i = sub32(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::MulI:
            regs[instr.a].i = mul32(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::DivI:
            if (regs[instr.c].i == 0)
                throw TrapError("integer division by zero");
            // INT_MIN / -1, the one quotient int32 cannot hold (x86
            // raises SIGFPE for it), wraps to INT_MIN like every other op.
            regs[instr.a].i =
                regs[instr.c].i == -1
                    ? sub32(0, regs[instr.b].i)
                    : regs[instr.b].i / regs[instr.c].i;
            break;
          case Opcode::ModI:
            if (regs[instr.c].i == 0)
                throw TrapError("integer modulo by zero");
            // INT_MIN % -1 overflows the same way; its wrapped value is 0.
            regs[instr.a].i = regs[instr.c].i == -1
                                  ? 0
                                  : regs[instr.b].i % regs[instr.c].i;
            break;
          case Opcode::AddF:
            regs[instr.a].f = regs[instr.b].f + regs[instr.c].f;
            break;
          case Opcode::SubF:
            regs[instr.a].f = regs[instr.b].f - regs[instr.c].f;
            break;
          case Opcode::MulF:
            regs[instr.a].f = regs[instr.b].f * regs[instr.c].f;
            break;
          case Opcode::DivF:
            regs[instr.a].f = regs[instr.b].f / regs[instr.c].f;
            break;
          case Opcode::NegI:
            regs[instr.a].i = sub32(0, regs[instr.b].i);
            break;
          case Opcode::NegF:
            regs[instr.a].f = -regs[instr.b].f;
            break;
          case Opcode::NotI:
            regs[instr.a].i = regs[instr.b].i == 0 ? 1 : 0;
            break;

          case Opcode::LtI:
            regs[instr.a].i = regs[instr.b].i < regs[instr.c].i;
            break;
          case Opcode::LeI:
            regs[instr.a].i = regs[instr.b].i <= regs[instr.c].i;
            break;
          case Opcode::GtI:
            regs[instr.a].i = regs[instr.b].i > regs[instr.c].i;
            break;
          case Opcode::GeI:
            regs[instr.a].i = regs[instr.b].i >= regs[instr.c].i;
            break;
          case Opcode::EqI:
            regs[instr.a].i = regs[instr.b].i == regs[instr.c].i;
            break;
          case Opcode::NeI:
            regs[instr.a].i = regs[instr.b].i != regs[instr.c].i;
            break;
          case Opcode::LtF:
            regs[instr.a].i = regs[instr.b].f < regs[instr.c].f;
            break;
          case Opcode::LeF:
            regs[instr.a].i = regs[instr.b].f <= regs[instr.c].f;
            break;
          case Opcode::GtF:
            regs[instr.a].i = regs[instr.b].f > regs[instr.c].f;
            break;
          case Opcode::GeF:
            regs[instr.a].i = regs[instr.b].f >= regs[instr.c].f;
            break;
          case Opcode::EqF:
            regs[instr.a].i = regs[instr.b].f == regs[instr.c].f;
            break;
          case Opcode::NeF:
            regs[instr.a].i = regs[instr.b].f != regs[instr.c].f;
            break;

          case Opcode::AndI:
            regs[instr.a].i = regs[instr.b].i & regs[instr.c].i;
            break;
          case Opcode::OrI:
            regs[instr.a].i = regs[instr.b].i | regs[instr.c].i;
            break;
          case Opcode::XorI:
            regs[instr.a].i = regs[instr.b].i ^ regs[instr.c].i;
            break;
          case Opcode::ShlI:
            regs[instr.a].i = shift_left(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::ShrI:
            regs[instr.a].i =
                shift_right_arith(regs[instr.b].i, regs[instr.c].i);
            break;

          case Opcode::IToF:
            regs[instr.a].f = static_cast<float>(regs[instr.b].i);
            break;
          case Opcode::FToI:
            regs[instr.a].i = float_to_int_rz(regs[instr.b].f);
            break;

          case Opcode::Sqrt:
            regs[instr.a].f = std::sqrt(regs[instr.b].f);
            break;
          case Opcode::Exp:
            regs[instr.a].f = std::exp(regs[instr.b].f);
            break;
          case Opcode::Log:
            regs[instr.a].f = std::log(regs[instr.b].f);
            break;
          case Opcode::Sin:
            regs[instr.a].f = std::sin(regs[instr.b].f);
            break;
          case Opcode::Cos:
            regs[instr.a].f = std::cos(regs[instr.b].f);
            break;
          case Opcode::Pow:
            regs[instr.a].f = std::pow(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Fabs:
            regs[instr.a].f = std::fabs(regs[instr.b].f);
            break;
          case Opcode::Fmin:
            regs[instr.a].f = std::fmin(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Fmax:
            regs[instr.a].f = std::fmax(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Floor:
            regs[instr.a].f = std::floor(regs[instr.b].f);
            break;
          case Opcode::Lgamma:
            regs[instr.a].f = std::lgamma(regs[instr.b].f);
            break;
          case Opcode::Erf:
            regs[instr.a].f = std::erf(regs[instr.b].f);
            break;
          case Opcode::IMin:
            regs[instr.a].i = std::min(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::IMax:
            regs[instr.a].i = std::max(regs[instr.b].i, regs[instr.c].i);
            break;

          case Opcode::Gid: {
            const int dim = instr.imm.i;
            regs[instr.a].i = geometry_.group_id[dim] *
                                  geometry_.local_size[dim] +
                              local_id[dim];
            break;
          }
          case Opcode::Lid:
            regs[instr.a].i = local_id[instr.imm.i];
            break;
          case Opcode::GrpId:
            regs[instr.a].i = geometry_.group_id[instr.imm.i];
            break;
          case Opcode::LSize:
            regs[instr.a].i = geometry_.local_size[instr.imm.i];
            break;
          case Opcode::NGrp:
            regs[instr.a].i = geometry_.num_groups[instr.imm.i];
            break;
          case Opcode::GSize:
            regs[instr.a].i = geometry_.num_groups[instr.imm.i] *
                              geometry_.local_size[instr.imm.i];
            break;

          case Opcode::Ld: {
            const int slot = instr.imm.i;
            BufferView& view = buffer(slot);
            const std::int64_t index = regs[instr.b].i;
            if (index < 0 || index >= view.size) {
                throw TrapError("out-of-bounds load from `" +
                                program_.buffers[slot].name + "`");
            }
            if constexpr (kInstrumented) {
                if (listener_) {
                    listener_->on_access(static_cast<int>(pc), slot,
                                         program_.buffers[slot].space, index,
                                         false, global_linear,
                                         data::storage_bytes(view.codec));
                }
            }
            regs[instr.a].i = codec_load(view, index);
            break;
          }
          case Opcode::St: {
            const int slot = instr.imm.i;
            BufferView& view = buffer(slot);
            const std::int64_t index = regs[instr.a].i;
            if (index < 0 || index >= view.size) {
                throw TrapError("out-of-bounds store to `" +
                                program_.buffers[slot].name + "`");
            }
            if constexpr (kInstrumented) {
                if (listener_) {
                    listener_->on_access(static_cast<int>(pc), slot,
                                         program_.buffers[slot].space, index,
                                         true, global_linear,
                                         data::storage_bytes(view.codec));
                }
            }
            codec_store(view, index, regs[instr.b].i);
            break;
          }

          case Opcode::AtomAdd:
          case Opcode::AtomMin:
          case Opcode::AtomMax:
          case Opcode::AtomInc:
          case Opcode::AtomAnd:
          case Opcode::AtomOr:
          case Opcode::AtomXor: {
            const int slot = instr.imm.i;
            BufferView& view = buffer(slot);
            const std::int64_t index = regs[instr.b].i;
            if (index < 0 || index >= view.size) {
                throw TrapError("out-of-bounds atomic on `" +
                                program_.buffers[slot].name + "`");
            }
            // Atomics need a whole, exactly-stored word to CAS on; the
            // storage safety analysis pins atomic targets exact, so this
            // trap is defense-in-depth against hand-built plans.
            if (view.codec != data::Codec::Exact) {
                throw TrapError("atomic on packed buffer `" +
                                program_.buffers[slot].name + "`");
            }
            if constexpr (kInstrumented) {
                if (listener_) {
                    listener_->on_access(static_cast<int>(pc), slot,
                                         program_.buffers[slot].space, index,
                                         true, global_linear, 4);
                }
            }
            std::int32_t* word = &view.data[index];
            const bool is_float_elem =
                program_.buffers[slot].elem == ir::Scalar::F32;
            const Value operand = regs[instr.c];
            std::int32_t old_word = 0;
            switch (instr.op) {
              case Opcode::AtomAdd:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return is_float_elem
                               ? as_word(as_float(w) + operand.f)
                               : add32(w, operand.i);
                });
                break;
              case Opcode::AtomMin:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return is_float_elem
                               ? as_word(std::fmin(as_float(w), operand.f))
                               : std::min(w, operand.i);
                });
                break;
              case Opcode::AtomMax:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return is_float_elem
                               ? as_word(std::fmax(as_float(w), operand.f))
                               : std::max(w, operand.i);
                });
                break;
              case Opcode::AtomInc:
                old_word = atomic_rmw(word, [](std::int32_t w) {
                    return add32(w, 1);
                });
                break;
              case Opcode::AtomAnd:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return w & operand.i;
                });
                break;
              case Opcode::AtomOr:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return w | operand.i;
                });
                break;
              case Opcode::AtomXor:
                old_word = atomic_rmw(word, [&](std::int32_t w) {
                    return w ^ operand.i;
                });
                break;
              default:
                break;
            }
            regs[instr.a].i = old_word;
            break;
          }

          case Opcode::Sel:
            regs[instr.a] = regs[instr.b].i != 0 ? regs[instr.c]
                                                 : regs[instr.d];
            break;

          case Opcode::Jmp:
            if constexpr (!kInstrumented)
                check_budget();
            check_cancel();
            pc = instr.imm.i;
            continue;
          case Opcode::Jz:
            if constexpr (!kInstrumented)
                check_budget();
            check_cancel();
            if (regs[instr.a].i == 0) {
                pc = instr.imm.i;
                continue;
            }
            break;

          case Opcode::Barrier:
            if (stop_at_barrier) {
                item.pc = pc + 1;
                local_stats_.total_instructions += executed;
                return true;
            }
            // A barrier in a 1-item group (or barrier-free schedule) is a
            // no-op.
            break;

          case Opcode::Halt:
            item.halted = true;
            local_stats_.total_instructions += executed;
            return false;

          // ---- Superinstructions (fast_code only) ----------------------
          // Each case replays its canonical pair in the original order:
          // the first instruction's destination register is written before
          // the second instruction's operands are read, so register
          // aliasing between the two halves behaves exactly as unfused.

          case Opcode::CmpJz: {
            if constexpr (!kInstrumented)
                check_budget();
            check_cancel();
            const std::int32_t flag =
                eval_compare(static_cast<Opcode>(instr.d), regs[instr.b],
                             regs[instr.c]);
            regs[instr.a].i = flag;
            if (flag == 0) {
                pc = instr.imm.i;
                continue;
            }
            break;
          }

          case Opcode::LdAddF:
          case Opcode::LdMulF:
          case Opcode::LdSubF:
          case Opcode::LdAddI: {
            const int slot = instr.imm.i & kFusedRegMask;
            BufferView& view = buffer(slot);
            const std::int64_t index = regs[instr.b].i;
            if (index < 0 || index >= view.size) {
                throw TrapError("out-of-bounds load from `" +
                                program_.buffers[slot].name + "`");
            }
            Value loaded;
            loaded.i = codec_load(view, index);
            regs[instr.d] = loaded;
            // Read the other operand only after the load's destination is
            // written: the canonical arith may read its own input there.
            const Value other = regs[instr.c];
            const bool swapped = (instr.imm.i & kFusedSwapFlag) != 0;
            const Value lhs = swapped ? other : loaded;
            const Value rhs = swapped ? loaded : other;
            switch (instr.op) {
              case Opcode::LdAddF: regs[instr.a].f = lhs.f + rhs.f; break;
              case Opcode::LdMulF: regs[instr.a].f = lhs.f * rhs.f; break;
              case Opcode::LdSubF: regs[instr.a].f = lhs.f - rhs.f; break;
              default:
                regs[instr.a].i = add32(lhs.i, rhs.i);
                break;
            }
            break;
          }

          case Opcode::AddFSt:
          case Opcode::MulFSt:
          case Opcode::AddISt: {
            Value value;
            switch (instr.op) {
              case Opcode::AddFSt:
                value.f = regs[instr.b].f + regs[instr.c].f;
                break;
              case Opcode::MulFSt:
                value.f = regs[instr.b].f * regs[instr.c].f;
                break;
              default:
                value.i = add32(regs[instr.b].i, regs[instr.c].i);
                break;
            }
            regs[instr.d] = value;
            // The store's index register may alias the arith destination;
            // canonical order reads it after that write.
            const int slot = instr.imm.i;
            BufferView& view = buffer(slot);
            const std::int64_t index = regs[instr.a].i;
            if (index < 0 || index >= view.size) {
                throw TrapError("out-of-bounds store to `" +
                                program_.buffers[slot].name + "`");
            }
            codec_store(view, index, value.i);
            break;
          }

          case Opcode::MaddF: {
            const float product = regs[instr.b].f * regs[instr.c].f;
            regs[instr.imm.i & kFusedRegMask].f = product;
            // Addend read after the product write (it may be the same
            // register); operand order preserved for bit-exact NaN/FP
            // behaviour.
            const float addend = regs[instr.d].f;
            const bool swapped = (instr.imm.i & kFusedSwapFlag) != 0;
            regs[instr.a].f = swapped ? addend + product : product + addend;
            break;
          }
          case Opcode::MaddI: {
            const std::int32_t product =
                mul32(regs[instr.b].i, regs[instr.c].i);
            regs[instr.imm.i].i = product;
            regs[instr.a].i = add32(regs[instr.d].i, product);
            break;
          }
        }
        ++pc;
    }
}

Value
run_scalar_program(const Program& program, const std::vector<Value>& args)
{
    PARAPROX_CHECK(program.buffers.empty(),
                   "scalar program must not take buffers");
    GroupGeometry geometry;  // one work-item
    // Host-side scalar evaluation (table population, bit tuning) never
    // consumes stats, so take the fast loop.
    GroupRunner runner(program, {}, args, {}, geometry, nullptr, nullptr,
                       ExecMode::Fast);
    runner.run();
    PARAPROX_ASSERT(!runner.final_regs().empty(),
                    "scalar program produced no registers");
    return runner.final_regs()[0];
}

}  // namespace paraprox::vm
