#include "c2b/exec/pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "c2b/common/assert.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"

namespace c2b::exec {
namespace {

/// Fork nesting depth of the current thread. Non-zero means we are already
/// inside a parallel_for chunk (as a worker or as the caller executing its
/// own share), so further forks run inline serially.
thread_local int tls_fork_depth = 0;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("C2B_THREADS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && value >= 1) return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
std::size_t g_configured_threads = 0;  // 0 = default (env / hardware)

}  // namespace

struct ThreadPool::Impl {
  /// One fork-join invocation: chunks reference it until the last one
  /// finishes and wakes the caller.
  struct Batch {
    const ChunkBody* body = nullptr;
    std::atomic<std::size_t> remaining{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  struct Chunk {
    Batch* batch = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One worker's queue. The owner pops from the front; thieves take from
  /// the back, so stolen work is the coldest.
  struct Queue {
    std::mutex mutex;
    std::deque<Chunk> chunks;
  };

  std::vector<std::unique_ptr<Queue>> queues;  // one per worker thread
  std::vector<std::thread> workers;
  std::mutex work_mutex;
  std::condition_variable work_cv;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queued{0};  // chunks sitting in worker queues
  std::atomic<std::uint64_t> steals{0};

  void run_chunk(const Chunk& chunk) noexcept {
    ++tls_fork_depth;
    try {
      (*chunk.batch->body)(chunk.begin, chunk.end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(chunk.batch->error_mutex);
      if (!chunk.batch->error) chunk.batch->error = std::current_exception();
    }
    --tls_fork_depth;
    // Decrement under done_mutex: the caller evaluates its wait predicate
    // while holding the same mutex, so it cannot observe remaining == 0 and
    // destroy the stack-allocated Batch while this thread is still between
    // the decrement and the notify. After the guard releases, `chunk.batch`
    // may be gone — touch nothing past this block.
    Batch* const batch = chunk.batch;
    std::lock_guard<std::mutex> lock(batch->done_mutex);
    if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      batch->done_cv.notify_all();
  }

  bool try_pop(std::size_t queue_index, Chunk* out, bool from_front) {
    Queue& queue = *queues[queue_index];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.chunks.empty()) return false;
    if (from_front) {
      *out = queue.chunks.front();
      queue.chunks.pop_front();
    } else {
      *out = queue.chunks.back();
      queue.chunks.pop_back();
    }
    queued.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Grab work as worker `self` (own queue first, then steal). Pass
  /// self == queues.size() for the caller thread, which owns no queue and
  /// only steals (its own share never entered a queue).
  bool acquire(std::size_t self, Chunk* out) {
    if (self < queues.size() && try_pop(self, out, /*from_front=*/true)) return true;
    for (std::size_t i = 0; i < queues.size(); ++i) {
      if (i == self) continue;
      if (try_pop(i, out, /*from_front=*/false)) {
        if (self < queues.size()) {
          // Only a worker taking from a sibling is a steal. The caller
          // draining leftovers is the normal fork-join epilogue (it owns no
          // queue), so it gets its own counter instead of inflating the
          // contention metric.
          steals.fetch_add(1, std::memory_order_relaxed);
          C2B_COUNTER_INC("exec.pool.steals");
        } else {
          C2B_COUNTER_INC("exec.pool.caller_drains");
        }
        return true;
      }
    }
    return false;
  }

  void worker_main(std::size_t self) {
    for (;;) {
      Chunk chunk;
      if (acquire(self, &chunk)) {
        run_chunk(chunk);
        continue;
      }
      std::unique_lock<std::mutex> lock(work_mutex);
      work_cv.wait(lock, [&] {
        return stop.load(std::memory_order_relaxed) ||
               queued.load(std::memory_order_relaxed) > 0;
      });
      if (stop.load(std::memory_order_relaxed) &&
          queued.load(std::memory_order_relaxed) == 0)
        return;
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl), thread_count_(threads) {
  C2B_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  const std::size_t worker_count = threads - 1;
  impl_->queues.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i)
    impl_->queues.push_back(std::make_unique<Impl::Queue>());
  impl_->workers.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i)
    impl_->workers.emplace_back([this, i] { impl_->worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->work_mutex);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

std::uint64_t ThreadPool::steal_count() const noexcept {
  return impl_->steals.load(std::memory_order_relaxed);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, const ChunkBody& body,
                              std::size_t grain) {
  if (end <= begin) return;
  const std::size_t count = end - begin;
  // Chunk layout is a function of (count, grain, thread_count) only —
  // identical for every run at a given configuration, and each index lands
  // in exactly one chunk.
  const std::size_t target_chunks = thread_count_ * 4;
  const std::size_t chunk_size =
      std::max<std::size_t>(grain == 0 ? 1 : grain, (count + target_chunks - 1) / target_chunks);
  const std::size_t chunk_count = (count + chunk_size - 1) / chunk_size;
  auto chunk_range = [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk_size;
    return std::pair<std::size_t, std::size_t>{lo, std::min(end, lo + chunk_size)};
  };

  const std::size_t worker_count = impl_->queues.size();
  if (worker_count == 0 || tls_fork_depth > 0 || chunk_count == 1) {
    // Exact serial fallback (threads=1, nested fork, or trivially small):
    // same chunks, ascending order, on this thread; exceptions propagate.
    ++tls_fork_depth;
    try {
      for (std::size_t c = 0; c < chunk_count; ++c) {
        const auto [lo, hi] = chunk_range(c);
        body(lo, hi);
      }
    } catch (...) {
      --tls_fork_depth;
      throw;
    }
    --tls_fork_depth;
    return;
  }

  Impl::Batch batch;
  batch.body = &body;
  batch.remaining.store(chunk_count, std::memory_order_relaxed);

  // Deal chunks round-robin across executors: slot 0 is the caller's local
  // share (never queued), slots 1..worker_count feed the worker queues.
  std::vector<Impl::Chunk> local;
  const std::size_t executors = worker_count + 1;
  {
    std::size_t pushed = 0;
    for (std::size_t c = 0; c < chunk_count; ++c) {
      const auto [lo, hi] = chunk_range(c);
      const Impl::Chunk chunk{&batch, lo, hi};
      const std::size_t slot = c % executors;
      if (slot == 0) {
        local.push_back(chunk);
      } else {
        Impl::Queue& queue = *impl_->queues[slot - 1];
        std::lock_guard<std::mutex> lock(queue.mutex);
        queue.chunks.push_back(chunk);
        ++pushed;
      }
    }
    // Publish `queued` under work_mutex (mirroring the stop flag in the
    // destructor): a worker evaluates its wait predicate while holding the
    // same mutex, so it either sees the new count or is not yet blocked and
    // will be reached by the notify below — no lost wakeup.
    {
      std::lock_guard<std::mutex> lock(impl_->work_mutex);
      impl_->queued.fetch_add(pushed, std::memory_order_relaxed);
    }
    C2B_COUNTER_ADD("exec.pool.chunks", chunk_count);
    C2B_GAUGE_SET("exec.pool.queue_depth", static_cast<double>(pushed));
  }
  impl_->work_cv.notify_all();

  // The caller is executor 0: run its share, then help drain the queues,
  // then sleep until the stragglers finish.
  for (const Impl::Chunk& chunk : local) impl_->run_chunk(chunk);
  Impl::Chunk chunk;
  while (impl_->acquire(impl_->queues.size(), &chunk)) impl_->run_chunk(chunk);
  {
    std::unique_lock<std::mutex> lock(batch.done_mutex);
    batch.done_cv.wait(lock,
                       [&] { return batch.remaining.load(std::memory_order_acquire) == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool) {
    const std::size_t threads =
        g_configured_threads > 0 ? g_configured_threads : default_thread_count();
    g_global_pool = std::make_unique<ThreadPool>(threads);
    C2B_GAUGE_SET("exec.pool.threads", static_cast<double>(threads));
    if (auto* journal = obs::active_journal())
      journal->emit(obs::JournalEvent("pool_start")
                        .count("threads", static_cast<std::uint64_t>(threads)));
  }
  return *g_global_pool;
}

void set_thread_count(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_configured_threads = threads;
  g_global_pool.reset();  // rebuilt lazily with the new size
}

std::size_t thread_count() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool) return g_global_pool->thread_count();
  return g_configured_threads > 0 ? g_configured_threads : default_thread_count();
}

}  // namespace c2b::exec
