// Async write-behind queue in front of a StorageBackend.
//
// The dedicated core's storage plugin must never couple the *iteration
// completion path* (which releases segment space / flow credit back to
// clients) to disk latency.  With write-behind, the plugin enqueues the
// finalized h5lite image and returns; server workers drain the queue and
// perform the real create/write/close.  The queue is bounded by a byte
// budget: when a slow disk lets pending images accumulate past the budget,
// enqueue() blocks — the pipeline stalls, iterations stop completing,
// blocks stay resident, and the existing credit/segment backpressure
// reaches the clients.  A slow disk therefore backs up into the same
// flow-control machinery as a slow plugin, instead of silently growing an
// unbounded buffer or stalling clients on every write.
//
// The queue knows no backend types.  enqueue() asks the backend for a
// WritePlan and queues its parts; any drainer may run any part.  A per-
// image countdown runs the plan's commit once the last part succeeded,
// then the producer's on_complete — so a sharded image's chunks spread
// over concurrent drainers and its manifest is published exactly once,
// while a posix or sim image is simply one part.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "storage/backend.hpp"

namespace dedicore::storage {

/// A "job" is one queued plan part: one per image on sim/posix, one per
/// chunk on sharded.
struct WriteBehindStats {
  std::uint64_t jobs_enqueued = 0;
  std::uint64_t jobs_written = 0;
  /// Jobs whose final verdict was failure (logged + counted + dropped).
  std::uint64_t jobs_failed = 0;
  /// Poison jobs: transient (kIoError) failures that survived the whole
  /// retry budget and were dropped so they cannot wedge the drain.  Every
  /// quarantined job is also counted in jobs_failed.
  std::uint64_t jobs_quarantined = 0;
  /// Individual retry attempts across all jobs (first attempts excluded).
  std::uint64_t retries = 0;
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_written = 0;
  double enqueue_block_seconds = 0.0;  ///< producer stalls on a full budget
  /// Worker time inside backend calls (including retry backoff sleeps).
  double drain_seconds = 0.0;
  std::uint64_t max_pending_bytes = 0; ///< high-water mark of the queue
};

class WriteBehind {
 public:
  /// An image to persist, with an optional completion hook.
  struct Job {
    std::string path;
    int stripe_count = 0;
    std::vector<std::byte> image;
    /// Invoked once with the image's verdict after its write attempt
    /// (any drainer thread; callbacks across the queue are serialized, so
    /// shared accounting inside needs no extra locking against other
    /// callbacks).  Producers use it to count durability at *drain* time
    /// — an enqueue is a promise, not a persisted file.
    std::function<void(const Status&)> on_complete = {};
  };

  /// `budget_bytes` bounds the pending (not yet drained) image bytes; a
  /// single image larger than the budget is still admitted alone, so the
  /// queue can never deadlock on an oversized image.  `retries` is the
  /// total attempt budget per part for *transient* (kIoError) backend
  /// failures: between attempts the drainer backs off exponentially (1 ms
  /// doubling, capped at 50 ms), and a part that exhausts the budget is
  /// quarantined as poison — dropped with its callback run, counted in
  /// WriteBehindStats::jobs_quarantined — instead of wedging the drain or
  /// the shutdown path.  `faults` (optional) enables the
  /// write_behind.* injection points.
  WriteBehind(StorageBackend& backend, std::uint64_t budget_bytes,
              int retries = 3,
              std::shared_ptr<fault::FaultInjector> faults = nullptr);
  ~WriteBehind();

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  /// Plans the image (StorageBackend::plan_write — layout decisions are
  /// frozen here, in enqueue order, however the parts later drain) and
  /// queues its parts as jobs.  The image's full size is charged to the
  /// byte budget until its last part drains.  While the budget is
  /// exhausted the caller is held up (backpressure) — but never parked
  /// helplessly: if queued work exists, the producer drains it itself (it
  /// may be the only thread able to reach a drain site, e.g. a plugin
  /// firing repeatedly under the server's pipeline mutex), and it only
  /// sleeps when every pending byte is in flight on another drainer.
  /// Deadlock-free by construction.  Fatal after close().
  ///
  /// Parts retry/quarantine individually.  The drainer that finishes an
  /// image's last part runs the plan's commit (only if every part
  /// succeeded: a failed part withholds it, so a partly written image is
  /// never published) and fires on_complete once with the image's verdict.
  void enqueue(Job job);

  /// Drains up to `max_jobs` pending parts on the calling thread and
  /// returns how many it wrote; never waits.  Server workers call it
  /// after completing an iteration's pipeline, and pooled workers parked
  /// in next_event() call drain_some(1) as the idle hook.  Concurrent
  /// callers drain disjoint parts.
  std::size_t drain_some(std::size_t max_jobs);

  /// Drains until the queue is empty *and no job is in flight on another
  /// drainer* — when it returns, every enqueued image has been durably
  /// attempted and its on_complete has run (shutdown path; also wakes
  /// producers).
  ///
  /// Audit notes (same discipline as the BoundedQueue condvar audits):
  ///  * No lost wakeup: idle_ is waited on under mutex_, and both state
  ///    transitions its predicate watches are made AND notified while
  ///    mutex_ is held — enqueue() pushes onto queue_ then notifies, and
  ///    write_out() decrements in_flight_ then notifies.  A waiter
  ///    therefore either observes the new state at the predicate check or
  ///    is woken by the notification; there is no window where the state
  ///    changes between the check and the wait registration.
  ///  * No double count / double drain: a part moves queue_ -> in_flight_
  ///    exactly once, atomically under mutex_ (pop()), its stats are
  ///    counted exactly once in write_out()'s accounting block, and the
  ///    image's budget charge is released there by its last part only.
  ///    drain_all never touches a part another drainer popped — it waits
  ///    for in_flight_ == 0 instead, so no countdown can run twice.
  ///  * Termination: retries are bounded (poison jobs are quarantined
  ///    after the retry budget, never re-enqueued), so every in-flight
  ///    job finishes in bounded time and in_flight_ is monotonically
  ///    drained once producers stop; a producer that slips a new job in
  ///    meanwhile re-arms the pop loop instead of being waited on forever.
  void drain_all();

  /// Rejects further enqueues and drains what is left.  Idempotent;
  /// called by the destructor.
  void close();

  [[nodiscard]] std::uint64_t pending_bytes() const;
  [[nodiscard]] std::size_t pending_jobs() const;
  [[nodiscard]] WriteBehindStats stats() const;
  [[nodiscard]] StorageBackend& backend() noexcept { return backend_; }

 private:
  struct Ticket;  ///< per-image countdown; write_behind.cpp
  struct Entry {
    WritePart part;
    std::shared_ptr<Ticket> ticket;
  };

  /// Pops one part; false when the queue is empty.
  bool pop(Entry* out);
  void write_out(Entry entry);
  [[nodiscard]] bool admits(std::uint64_t bytes) const
      DEDICORE_REQUIRES(mutex_);

  StorageBackend& backend_;
  const std::uint64_t budget_bytes_;
  const int retries_;  ///< total attempts per part on transient failures
  std::shared_ptr<fault::FaultInjector> faults_;

  /// Queue + budget + counters.  Never held across a backend call or an
  /// on_complete callback — write_out releases it before both.
  mutable Mutex mutex_{"write_behind.state"};
  CondVar space_;   ///< producers waiting for budget
  CondVar idle_;    ///< drain_all waiting for in-flight jobs
  /// Serializes the per-image countdowns and on_complete invocations (not
  /// the backend writes), so producer-side accounting never races another
  /// drainer's callback.  Held while a plan's commit runs (the sharded
  /// manifest publish), so write_behind.callback sits ABOVE sharded.state
  /// / posix.* in the hierarchy; it never nests with write_behind.state
  /// in either order.
  Mutex callback_mutex_{"write_behind.callback"};
  std::deque<Entry> queue_ DEDICORE_GUARDED_BY(mutex_);
  /// Budget charge of every image with a part queued or in flight.
  std::uint64_t pending_bytes_ DEDICORE_GUARDED_BY(mutex_) = 0;
  /// Parts popped but not yet written out.
  int in_flight_ DEDICORE_GUARDED_BY(mutex_) = 0;
  bool closed_ DEDICORE_GUARDED_BY(mutex_) = false;
  WriteBehindStats stats_ DEDICORE_GUARDED_BY(mutex_);
};

}  // namespace dedicore::storage
