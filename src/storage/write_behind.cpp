#include "storage/write_behind.hpp"

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace dedicore::storage {

/// One image in flight: its budget charge, the plan's commit, and the
/// countdown of parts not yet written out.
struct WriteBehind::Ticket {
  std::string path;
  std::uint64_t bytes = 0;  ///< budget charge, released by the last part
  std::function<Status()> commit;
  std::function<void(const Status&)> on_complete;
  // Countdown state: touched only under callback_mutex_.
  std::size_t remaining = 0;
  Status first_error;
};

WriteBehind::WriteBehind(StorageBackend& backend, std::uint64_t budget_bytes,
                         int retries,
                         std::shared_ptr<fault::FaultInjector> faults)
    : backend_(backend),
      budget_bytes_(budget_bytes),
      retries_(retries),
      faults_(std::move(faults)) {
  DEDICORE_CHECK(budget_bytes_ > 0, "WriteBehind: budget must be positive");
  DEDICORE_CHECK(retries_ >= 1, "WriteBehind: retry budget must be >= 1");
}

WriteBehind::~WriteBehind() { close(); }

bool WriteBehind::admits(std::uint64_t bytes) const {
  // Admit when the budget has room — or when nothing is pending at all,
  // so an oversized image is let in alone and can never wait on itself.
  return pending_bytes_ + bytes <= budget_bytes_ || pending_bytes_ == 0;
}

void WriteBehind::enqueue(Job job) {
  // Injected producer stall (fault plans only): models a plugin that is
  // slow to reach the enqueue, so drain/stall interleavings can be forced
  // deterministically in tests.
  if (faults_ != nullptr) {
    if (auto fired = faults_->fire("write_behind.enqueue_stall"))
      std::this_thread::sleep_for(std::chrono::microseconds(fired->magnitude));
  }
  // Plan now, outside every queue lock: the backend fixes any layout in
  // enqueue order — the producers' program order — so twin runs plan
  // identical layouts no matter how the parts later drain.
  WritePlan plan = backend_.plan_write(job.path, std::move(job.image),
                                       job.stripe_count);
  auto ticket = std::make_shared<Ticket>();
  ticket->path = std::move(job.path);
  ticket->bytes = plan.bytes();
  ticket->commit = std::move(plan.commit);
  ticket->on_complete = std::move(job.on_complete);
  ticket->remaining = plan.parts.size();

  Stopwatch blocked;
  for (;;) {
    {
      UniqueLock lock(mutex_);
      // Every pending byte is in flight on another drainer; those writes
      // finish without any help from us — park until one returns budget.
      while (!closed_ && !admits(ticket->bytes) && queue_.empty())
        space_.wait(lock);
      DEDICORE_CHECK(!closed_, "WriteBehind: enqueue after close");
      if (admits(ticket->bytes)) {
        stats_.enqueue_block_seconds += blocked.elapsed_seconds();
        pending_bytes_ += ticket->bytes;
        stats_.max_pending_bytes =
            std::max(stats_.max_pending_bytes, pending_bytes_);
        stats_.jobs_enqueued += plan.parts.size();
        stats_.bytes_enqueued += ticket->bytes;
        for (WritePart& part : plan.parts)
          queue_.push_back(Entry{std::move(part), ticket});
        idle_.notify_all();  // a parked drain_all re-arms its pop loop
        return;
      }
    }
    // Budget full with queued work: the producer becomes a drainer
    // instead of parking.  This is what makes the queue deadlock-free
    // by construction — the blocked producer may be the only thread
    // that can reach a drain site (e.g. a plugin firing twice under
    // the server's pipeline mutex), so it frees the budget itself.
    // The stall is still real backpressure: the producer is doing disk
    // time instead of completing its iteration.
    drain_some(1);
  }
}

bool WriteBehind::pop(Entry* out) {
  MutexLock lock(mutex_);
  if (queue_.empty()) return false;
  *out = std::move(queue_.front());
  queue_.pop_front();
  ++in_flight_;
  return true;
}

void WriteBehind::write_out(Entry entry) {
  Ticket& image = *entry.ticket;
  Stopwatch timer;
  // Transient (kIoError) failures are retried with bounded exponential
  // backoff: 1 ms doubling to a 50 ms cap, at most `retries_` total
  // attempts.  Anything else — bad path, stale handle — is deterministic
  // and fails immediately.  A part that exhausts the budget is poison:
  // dropped (callback still runs with the failure) so it can never wedge
  // drain_all, the idle hook, or shutdown.
  Status st;
  int attempts = 0;
  std::uint64_t retries_used = 0;
  for (;;) {
    ++attempts;
    if (faults_ != nullptr && faults_->should_fire("write_behind.write"))
      st = Status::io_error("write-behind '" + image.path + "': injected EIO");
    else
      st = entry.part.run(nullptr);
    if (st.is_ok() || st.code() != StatusCode::kIoError ||
        attempts >= retries_)
      break;
    ++retries_used;
    const std::int64_t backoff_ms =
        attempts >= 7 ? 50 : (std::int64_t{1} << (attempts - 1));
    DEDICORE_LOG(kWarn) << "write-behind: transient failure on '" << image.path
                        << "' (attempt " << attempts << "/" << retries_
                        << "): " << st.to_string() << "; retrying in "
                        << backoff_ms << "ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
  const bool quarantined = !st.is_ok() && st.code() == StatusCode::kIoError;
  const double drained_in = timer.elapsed_seconds();

  if (quarantined)
    DEDICORE_LOG(kError) << "write-behind: quarantining poison job '"
                         << image.path << "' after " << attempts
                         << " attempt(s): " << st.to_string();
  else if (!st.is_ok())
    DEDICORE_LOG(kError) << "write-behind: dropping '" << image.path
                         << "': " << st.to_string();
  bool last = false;
  {
    // Outside mutex_ (the commit and the callback take backend and
    // producer locks) but serialized against other drainers' countdowns
    // and callbacks, so producers can account without guarding against
    // concurrent drainers themselves.
    MutexLock serialize(callback_mutex_);
    if (!st.is_ok() && image.first_error.is_ok()) image.first_error = st;
    last = --image.remaining == 0;
    if (last) {
      // Any failed part — including a quarantined poison one — withholds
      // the commit, so an image is never visible half written.
      Status verdict = image.first_error;
      if (image.commit && verdict.is_ok())
        verdict = image.commit();
      else if (image.commit)
        DEDICORE_LOG(kError) << "write-behind: withholding the commit of '"
                             << image.path << "' after a part failure: "
                             << verdict.to_string();
      if (image.on_complete) image.on_complete(verdict);
    }
  }

  MutexLock lock(mutex_);
  // The image's budget charge is released only with its last part: until
  // then the plan still holds the whole image in memory.
  if (last) {
    DEDICORE_CHECK(pending_bytes_ >= image.bytes,
                   "WriteBehind: pending-byte accounting underflow");
    pending_bytes_ -= image.bytes;
  }
  --in_flight_;
  stats_.drain_seconds += drained_in;
  stats_.retries += retries_used;
  if (st.is_ok()) {
    ++stats_.jobs_written;
    stats_.bytes_written += entry.part.bytes;
  } else {
    ++stats_.jobs_failed;
    if (quarantined) ++stats_.jobs_quarantined;
  }
  space_.notify_all();
  idle_.notify_all();
}

std::size_t WriteBehind::drain_some(std::size_t max_jobs) {
  std::size_t written = 0;
  Entry entry;
  while (written < max_jobs && pop(&entry)) {
    write_out(std::move(entry));
    entry = Entry{};
    ++written;
  }
  return written;
}

void WriteBehind::drain_all() {
  for (;;) {
    drain_some(SIZE_MAX);
    // Parts another drainer popped may still be mid-write: wait them out,
    // so a caller returning from drain_all knows every enqueued image has
    // been attempted and its completion callback has run — a server's
    // shutdown drain must not let a sibling's in-flight write outlive the
    // run.  A producer that slips a new image in meanwhile (another
    // server of the node still finishing) re-arms the pop loop instead of
    // being waited on forever.
    UniqueLock lock(mutex_);
    while (queue_.empty() && in_flight_ != 0) idle_.wait(lock);
    if (queue_.empty()) return;
  }
}

void WriteBehind::close() {
  {
    // Idempotent: a repeated close still runs the final drain below (a
    // racing enqueue cannot exist — enqueue after close is fatal).
    MutexLock lock(mutex_);
    closed_ = true;
    space_.notify_all();
  }
  drain_all();
}

std::uint64_t WriteBehind::pending_bytes() const {
  MutexLock lock(mutex_);
  return pending_bytes_;
}

std::size_t WriteBehind::pending_jobs() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

WriteBehindStats WriteBehind::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace dedicore::storage
