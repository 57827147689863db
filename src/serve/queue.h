/// @file
/// Bounded MPMC queues with reject-on-full backpressure.
///
/// The serving subsystem never blocks a producer: when the queue is at
/// capacity, try_push fails immediately with a reason the caller can
/// surface to its client (shed load at the edge instead of letting an
/// unbounded backlog grow — the paper's runtime budget only holds if
/// admission is bounded).  Consumers block; close() lets them drain what
/// was admitted and then exit, which is what "stop without dropping
/// queued requests" means.
///
/// Two shapes live here: the original single-deque BoundedQueue, and the
/// per-kernel ShardedQueue whose consumers pop whole same-shard batches
/// so one launch can serve many coalesced requests.

#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace paraprox::serve {

/// Why a push was (or was not) admitted.
enum class PushResult {
    Ok,      ///< Enqueued.
    Full,    ///< At capacity; retry later or shed the request.
    Closed,  ///< close() was called; no further admissions.
};

inline const char*
to_string(PushResult result)
{
    switch (result) {
      case PushResult::Ok: return "ok";
      case PushResult::Full: return "queue full";
      case PushResult::Closed: return "queue closed";
    }
    return "<bad-push-result>";
}

/// Mutex-based bounded multi-producer multi-consumer queue.
template <typename T>
class BoundedQueue {
  public:
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

    BoundedQueue(const BoundedQueue&) = delete;
    BoundedQueue& operator=(const BoundedQueue&) = delete;

    /// Non-blocking admission: enqueue @p item or say why not.  This is
    /// the backpressure point — it never waits.
    PushResult try_push(T item)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return PushResult::Closed;
            if (items_.size() >= capacity_)
                return PushResult::Full;
            items_.push_back(
                {std::move(item), std::chrono::steady_clock::now()});
        }
        ready_.notify_one();
        return PushResult::Ok;
    }

    /// Blocking consumer side: waits until an item is available or the
    /// queue is closed and drained.  Returns false only in the latter
    /// case (the consumer should exit).
    bool pop(T& out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        out = std::move(items_.front().item);
        items_.pop_front();
        return true;
    }

    /// How long the head-of-line item has been waiting, or nullopt when
    /// the queue is empty.  A new admission waits at least this long
    /// (FIFO), which is what deadline-aware admission needs to reject
    /// requests that cannot possibly be served in time.
    std::optional<std::chrono::steady_clock::duration> oldest_age() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (items_.empty())
            return std::nullopt;
        return std::chrono::steady_clock::now() - items_.front().at;
    }

    /// Refuse new admissions; already-queued items remain poppable.
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    /// Queued item plus its admission time, for oldest_age().
    struct Entry {
        T item;
        std::chrono::steady_clock::time_point at;
    };

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Entry> items_;
    bool closed_ = false;
};

/// Per-kernel sharded MPMC queue with batch pop.
///
/// Every kernel owns a shard (its own mutex and deque), so producers
/// targeting different kernels never contend on one lock and a hot
/// kernel's backlog cannot convoy everyone else's.  Consumers scan shards
/// round-robin and claim whatever the first non-empty shard holds, up to
/// max_batch, in one pop.  Popping is work-conserving: a pop never waits
/// for more members, so no consumer sits idle next to a queued request.
/// Batches form from backlog alone — requests that pile up while every
/// consumer is busy coalesce into one launch.
///
/// Capacity is per shard: each kernel gets its own admission budget, and
/// oldest_age(shard) answers deadline-aware admission against the shard
/// the request would actually wait in, not a global backlog.
template <typename T>
class ShardedQueue {
  public:
    explicit ShardedQueue(std::size_t capacity_per_shard)
        : capacity_(capacity_per_shard)
    {
    }

    ShardedQueue(const ShardedQueue&) = delete;
    ShardedQueue& operator=(const ShardedQueue&) = delete;

    /// How one pop_batch() resolved.
    enum class PopOutcome {
        Batch,   ///< items holds >= 1 same-shard entries.
        Idle,    ///< idle_timeout elapsed with nothing admitted.
        Closed,  ///< Closed and fully drained; the consumer should exit.
    };

    struct PopOptions {
        /// Most entries one pop may coalesce.  1 = no batching.
        std::size_t max_batch = 1;
        /// How long an idle consumer waits before PopOutcome::Idle gives
        /// it a turn (services use the tick for pressure relief).
        std::chrono::steady_clock::duration idle_timeout =
            std::chrono::milliseconds(10);
    };

    struct BatchPop {
        PopOutcome outcome = PopOutcome::Idle;
        std::size_t shard = 0;         ///< Valid when outcome == Batch.
        std::vector<T> items;
        std::size_t remaining = 0;     ///< Shard depth right after the pop.
    };

    /// Create a new shard and return its index.  Thread-safe; existing
    /// shard indices stay valid forever.
    std::size_t add_shard()
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        shards_.push_back(std::make_unique<Shard>());
        return shards_.size() - 1;
    }

    std::size_t num_shards() const
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        return shards_.size();
    }

    /// Non-blocking admission into @p shard.  The pending count is raised
    /// before the shard sees the item (and lowered again on a full
    /// shard), so an observer can never catch the total below the number
    /// of items actually admitted — the same discipline the service uses
    /// for its queue-depth gauge.
    PushResult try_push(std::size_t shard, T item)
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            if (closed_)
                return PushResult::Closed;
            target = shards_[shard].get();
            ++pending_;
        }
        {
            std::lock_guard<std::mutex> lock(target->mutex);
            if (target->items.size() >= capacity_) {
                std::lock_guard<std::mutex> undo(sync_mutex_);
                --pending_;
                return PushResult::Full;
            }
            target->items.push_back(
                {std::move(item), std::chrono::steady_clock::now()});
        }
        ready_.notify_one();
        return PushResult::Ok;
    }

    /// Blocking consumer side: wait until something is admitted (or the
    /// queue closes, or idle_timeout passes), claim the first non-empty
    /// shard at/after @p cursor, and take up to max_batch of the entries
    /// it already holds — never waiting for more.  @p cursor advances
    /// past the claimed shard so a consumer rotates fairly instead of
    /// camping on shard 0.
    BatchPop pop_batch(std::size_t& cursor, const PopOptions& options)
    {
        BatchPop out;
        std::unique_lock<std::mutex> sync(sync_mutex_);
        for (;;) {
            if (pending_ == 0) {
                if (closed_) {
                    out.outcome = PopOutcome::Closed;
                    return out;
                }
                const bool admitted = ready_.wait_for(
                    sync, options.idle_timeout, [this] {
                        return pending_ > 0 || closed_;
                    });
                if (!admitted) {
                    out.outcome = PopOutcome::Idle;
                    return out;
                }
                continue;
            }

            // Snapshot stable shard pointers, then scan without the sync
            // lock — shard mutexes are never nested inside it.
            std::vector<Shard*> shards;
            shards.reserve(shards_.size());
            for (const auto& shard : shards_)
                shards.push_back(shard.get());
            sync.unlock();

            for (std::size_t step = 0; step < shards.size(); ++step) {
                const std::size_t index =
                    (cursor + step) % shards.size();
                Shard& shard = *shards[index];
                std::unique_lock<std::mutex> lock(shard.mutex);
                if (shard.items.empty())
                    continue;
                const std::size_t take =
                    std::min(shard.items.size(),
                             std::max<std::size_t>(options.max_batch, 1));
                out.items.reserve(take);
                for (std::size_t i = 0; i < take; ++i) {
                    out.items.push_back(std::move(shard.items.front().item));
                    shard.items.pop_front();
                }
                out.remaining = shard.items.size();
                lock.unlock();

                out.outcome = PopOutcome::Batch;
                out.shard = index;
                cursor = index + 1;
                std::lock_guard<std::mutex> done(sync_mutex_);
                pending_ -= out.items.size();
                return out;
            }

            // pending_ was raised by a producer that has not landed its
            // item in a shard yet (or a full-shard undo is in flight);
            // the window is a few instructions, so wait it out briefly.
            sync.lock();
            if (pending_ > 0 && !closed_) {
                ready_.wait_for(sync, std::chrono::microseconds(100));
            }
        }
    }

    /// How long @p shard's head-of-line entry has been waiting, or
    /// nullopt when the shard is empty.  FIFO within a shard: a new
    /// admission waits at least this long.
    std::optional<std::chrono::steady_clock::duration>
    oldest_age(std::size_t shard) const
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            target = shards_[shard].get();
        }
        std::lock_guard<std::mutex> lock(target->mutex);
        if (target->items.empty())
            return std::nullopt;
        return std::chrono::steady_clock::now() -
               target->items.front().at;
    }

    std::size_t shard_size(std::size_t shard) const
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            target = shards_[shard].get();
        }
        std::lock_guard<std::mutex> lock(target->mutex);
        return target->items.size();
    }

    /// Entries admitted and not yet claimed by a pop, across all shards
    /// (a batch mid-pop still counts until its pop completes).
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        return pending_;
    }

    std::size_t capacity() const { return capacity_; }

    /// Refuse new admissions; queued entries remain poppable.
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

  private:
    struct Entry {
        T item;
        std::chrono::steady_clock::time_point at;
    };

    struct Shard {
        std::mutex mutex;
        std::deque<Entry> items;
    };

    const std::size_t capacity_;

    /// Guards shards_ growth, pending_, and closed_.  Lock order:
    /// sync_mutex_ may be taken while holding a shard mutex (the
    /// full-shard undo), never the reverse — pop releases it before
    /// touching shard mutexes.
    mutable std::mutex sync_mutex_;
    std::condition_variable ready_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t pending_ = 0;
    bool closed_ = false;
};

}  // namespace paraprox::serve
