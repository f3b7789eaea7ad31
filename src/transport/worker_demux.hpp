// Leader-follower demux owned by the ServerTransport base class: every
// server intake, of any worker count, runs through it (a lone worker is a
// pool of one that always leads).
//
// One ServerTransport, N concurrent next_event() consumers: exactly one
// worker at a time (the leader) runs the backend's blocking drain — queue
// pop_all on shm, frame recv on MPI — with the pool lock DROPPED, then
// routes the batch into per-client FIFOs under the lock.  Followers wait
// on a condition variable, never on a lock the leader holds across its
// blocking call: that shape deadlocks when the leader waits for traffic
// that only a fed-but-parked worker can cause (e.g. the credit a blocked
// client is waiting for, which returns only after the parked worker
// completes an iteration).
//
// Every leadership exit — a routed batch or the drained verdict —
// notifies under the lock, so a follower either consumes its intake or
// takes over leadership; no wakeup can be missed.
//
// Client → worker assignment is an *ownership token* per client.  A new
// client starts owned by worker c mod N (the static pinning rule, and the
// only rule when stealing is off).  With stealing on, an idle worker whose
// own clients have nothing pending takes the longest-backlogged client
// from the busiest peer — the whole client moves, never individual events,
// so the client's stream still drains through one per-client FIFO.
//
// Ordering guarantees under stealing:
//  * exactly one worker owns a client at any instant (ownership changes
//    only under the pool lock), and only the owner pops that client's
//    events — delivery stays per-client FIFO, exactly-once;
//  * *control* events (end-iteration, skip, signal, stop) are per-client
//    barriers: one is handed out only when no previously delivered event
//    of that client is still being processed, so an iteration's close
//    never overtakes the indexing of that iteration's blocks.  Block
//    events carry no such dependency (the server's index is thread-safe
//    and blocks are keyed, not ordered), so consecutive blocks of one
//    client MAY be in flight on different workers after a steal — that
//    is exactly how a pool parallelizes one hot client's burst.
//
// Idle drain: a worker that has nothing local, nothing to steal, and no
// leadership to take would park on the condition variable.  When an idle
// hook is installed (the server wires it to storage::WriteBehind's
// drain_some(1)), the worker first runs the hook with the lock dropped —
// pending disk writes drain on otherwise-wasted waits — and only parks
// (with a short timeout, to keep polling the hook) when the hook reports
// no work either.
//
// Dead clients and the control barrier (fault tolerance).  kClientAborted
// is itself a gated control: it is delivered only once the dead client's
// in-flight count is zero, which guarantees every block event the client
// published *before* dying has been handed out (and, by the re-entry
// contract, fully processed) before the server runs reclamation — that
// barrier is what makes reclaim sound.  The hazard is everything *behind*
// the abort: a zombie client can leave further events queued (an external
// kill racing already-staged pushes, a duplicate stop), and a gated
// control among them would never have its barrier observed by anyone —
// a sibling worker parked in the post-drain wait ("every head is a gated
// control") would sleep forever.  So on delivering an abort the demux
// marks the client aborted and *cancels* the remaining control events in
// its backlog (popped and counted in controls_cancelled, never handed
// out); controls routed for an already-aborted client are dropped at
// route() the same way.  Zombie *block* events still flow through — the
// server releases a dead client's blocks without indexing them, so the
// segment/credit they pin is returned through the normal release path
// rather than leaking.  Cancellation happens under the pool lock by the
// client's owning worker, and a backlog emptied by cancellation removes
// the client from its owner's ready list before anyone else can observe
// it, so the "client in ready iff backlog non-empty" invariant holds.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "transport/message.hpp"

namespace dedicore::transport {

class WorkerDemux {
 public:
  /// Call at most once, before the first next().  `workers` >= 1.
  void set_worker_count(int workers, WorkerPoolOptions options = {}) {
    DEDICORE_CHECK(workers >= 1, "WorkerDemux: worker count must be >= 1");
    MutexLock lock(mutex_);
    DEDICORE_CHECK(!consumed_, "WorkerDemux: set_worker_count after consumption began");
    DEDICORE_CHECK(options.steal_threshold >= 1,
                   "WorkerDemux: steal threshold must be >= 1");
    workers_ = workers;
    options_ = options;
    ready_.assign(static_cast<std::size_t>(workers_), {});
    last_client_.assign(static_cast<std::size_t>(workers_), kNoClient);
    backlog_totals_.assign(static_cast<std::size_t>(workers_), 0);
  }

  /// Installs the idle-work hook: invoked (without the pool lock) by a
  /// worker that would otherwise park with nothing to consume, steal, or
  /// lead.  Returns true when it performed a unit of work (the worker
  /// re-checks its intake), false when there was nothing to do (the
  /// worker parks, briefly, and polls again).  Install before the first
  /// next(); the server wires this to WriteBehind::drain_some(1).
  void set_idle_hook(std::function<bool()> hook) {
    MutexLock lock(mutex_);
    DEDICORE_CHECK(!consumed_, "WorkerDemux: set_idle_hook after consumption began");
    idle_hook_ = std::move(hook);
  }

  /// Clients whose ownership moved to an idle worker.
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Units of idle-hook work performed by parked-instead workers.
  [[nodiscard]] std::uint64_t idle_drains() const noexcept {
    return idle_drains_.load(std::memory_order_relaxed);
  }
  /// Gated control events of dead clients cancelled instead of delivered.
  [[nodiscard]] std::uint64_t controls_cancelled() const noexcept {
    return controls_cancelled_.load(std::memory_order_relaxed);
  }

  /// The next event for `worker`.  `drain` is the backend's blocking
  /// intake: it appends a non-empty batch to its argument and returns
  /// true, or returns false when the stream is over (queue closed and
  /// empty / end-of-stream sentinel); it is invoked by one leader at a
  /// time, without the pool lock held.  `delivered` counts handed-out
  /// events for the backend's stats.
  template <typename DrainFn>
  std::optional<Event> next(int worker, DrainFn&& drain,
                            std::atomic<std::uint64_t>& delivered) {
    DEDICORE_CHECK(worker >= 0 && worker < workers_,
                   "WorkerDemux: worker index out of range");
    UniqueLock lock(mutex_);
    consumed_ = true;
    complete_previous(worker);
    for (;;) {
      if (std::optional<Event> event = take_local(worker)) {
        delivered.fetch_add(1, std::memory_order_relaxed);
        return event;
      }
      if (options_.steal && try_steal(worker)) continue;  // loop pops it
      if (drained_) {
        // A non-empty ready list here means every head is a gated
        // control: wait for the in-flight processor's re-entry (which
        // notifies) rather than stranding the event.
        if (ready_[static_cast<std::size_t>(worker)].empty())
          return std::nullopt;
        cv_.wait(lock);
        continue;
      }
      if (!leader_active_ && ready_[static_cast<std::size_t>(worker)].empty()) {
        // Lead one drain, with the pool lock dropped for the blocking
        // call so followers can keep consuming their intakes meanwhile.
        // A worker whose ready list is non-empty (every head a gated
        // control) must NOT lead: its gate clears while it would be stuck
        // in the blocking drain, stranding a control event no peer may
        // pop — it parks below instead, and the in-flight processor's
        // re-entry notify wakes it.
        leader_active_ = true;
        lock.unlock();
        batch_.clear();
        const bool more = drain(batch_);
        lock.lock();
        leader_active_ = false;
        if (!more) {
          drained_ = true;
          cv_.notify_all();
          continue;  // drain what is already routed for us, then exit
        }
        for (const Event& event : batch_) route(event);
        cv_.notify_all();  // fed followers wake; one may take the lead
        continue;
      }
      // Nothing to deliver right now (someone else is draining, or our
      // only pending heads are gated controls): do idle work if a hook
      // is installed, otherwise park until a route or a gate-clearing
      // re-entry notifies.
      if (idle_hook_) {
        lock.unlock();
        const bool worked = idle_hook_();
        lock.lock();
        if (worked) {
          idle_drains_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Nothing pending there either; park briefly so new idle work
        // (enqueued by a worker completing an iteration) is still picked
        // up while the event stream is quiet.
        cv_.wait_for(lock, std::chrono::microseconds(200));
        continue;
      }
      cv_.wait(lock);
    }
  }

 private:
  static constexpr int kNoClient = std::numeric_limits<int>::min();

  struct ClientState {
    std::deque<Event> backlog;  ///< undelivered events, publish/post order
    int owner = 0;              ///< the one worker allowed to pop backlog
    int in_flight = 0;          ///< delivered, processing not yet finished
    bool aborted = false;       ///< kClientAborted delivered; cancel zombie
                                ///< controls instead of gating on them
  };

  /// A control event is a per-client barrier; a block is not (see header
  /// comment).  Only call with a non-empty backlog (callers hold the pool
  /// lock; the state reference itself is mutex_-guarded data).
  static bool deliverable(const ClientState& state) {
    return state.backlog.front().type == EventType::kBlockWritten ||
           state.in_flight == 0;
  }

  /// The worker finished processing whatever next() handed it last time
  /// (callers are strictly pop-process-pop loops, so re-entry is the
  /// completion signal).  When that drops a client's in-flight count to
  /// zero, a peer may be parked on that client's gated control — notify.
  void complete_previous(int worker) DEDICORE_REQUIRES(mutex_) {
    const int client = last_client_[static_cast<std::size_t>(worker)];
    if (client == kNoClient) return;
    last_client_[static_cast<std::size_t>(worker)] = kNoClient;
    ClientState& state = clients_.at(client);
    if (--state.in_flight == 0 && !state.backlog.empty()) cv_.notify_all();
  }

  /// Pops the next deliverable event among the clients `worker` owns,
  /// rotating across them for fairness (per-client order is the deque's).
  std::optional<Event> take_local(int worker) DEDICORE_REQUIRES(mutex_) {
    std::deque<int>& ready = ready_[static_cast<std::size_t>(worker)];
    for (std::size_t scanned = ready.size(); scanned > 0; --scanned) {
      const int client = ready.front();
      ready.pop_front();
      ClientState& state = clients_.at(client);
      if (state.backlog.empty()) continue;  // emptied by cancellation
      if (!deliverable(state)) {
        ready.push_back(client);  // gated control; retry after in-flight
        continue;
      }
      Event event = state.backlog.front();
      state.backlog.pop_front();
      --backlog_totals_[static_cast<std::size_t>(worker)];
      ++state.in_flight;
      last_client_[static_cast<std::size_t>(worker)] = client;
      if (event.type == EventType::kClientAborted && !state.aborted) {
        state.aborted = true;
        cancel_zombie_controls(state);
      }
      if (!state.backlog.empty()) ready.push_back(client);
      return event;
    }
    return std::nullopt;
  }

  /// Owner-only, under the pool lock, right after delivering a client's
  /// abort: removes every remaining *control* event from its backlog (a
  /// dead client's barriers would otherwise be waited on forever — see the
  /// header's fault-tolerance note).  Blocks stay: the server releases a
  /// dead client's blocks without indexing, returning their resources.
  void cancel_zombie_controls(ClientState& state) DEDICORE_REQUIRES(mutex_) {
    std::uint64_t cancelled = 0;
    std::erase_if(state.backlog, [&](const Event& event) {
      if (event.type == EventType::kBlockWritten) return false;
      ++cancelled;
      return true;
    });
    if (cancelled == 0) return;
    backlog_totals_[static_cast<std::size_t>(state.owner)] -= cancelled;
    controls_cancelled_.fetch_add(cancelled, std::memory_order_relaxed);
  }

  /// Leader-only: appends one drained event to its client's backlog,
  /// minting the ownership token (pinning rule) on first contact.
  void route(const Event& event) DEDICORE_REQUIRES(mutex_) {
    auto [it, inserted] = clients_.try_emplace(event.source);
    ClientState& state = it->second;
    if (inserted)
      state.owner = ((event.source % workers_) + workers_) % workers_;
    if (state.aborted && event.type != EventType::kBlockWritten) {
      // Zombie control behind an already-delivered abort: cancel, never
      // gate on a dead client's barrier.
      controls_cancelled_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (state.backlog.empty())
      ready_[static_cast<std::size_t>(state.owner)].push_back(event.source);
    state.backlog.push_back(event);
    ++backlog_totals_[static_cast<std::size_t>(state.owner)];
  }

  /// Moves the longest-backlogged deliverable client of the busiest peer
  /// to `worker`.  After the stream drained, the threshold drops to one
  /// event so a peer that stopped consuming cannot strand a tail.
  bool try_steal(int worker) DEDICORE_REQUIRES(mutex_) {
    const std::size_t threshold =
        drained_ ? 1 : static_cast<std::size_t>(options_.steal_threshold);
    int best_client = kNoClient;
    std::uint64_t best_owner_load = 0;
    std::size_t best_backlog = 0;
    for (const auto& [client, state] : clients_) {
      if (state.owner == worker || state.backlog.size() < threshold) continue;
      if (!deliverable(state)) continue;  // a gated control helps no one
      const std::uint64_t owner_load =
          backlog_totals_[static_cast<std::size_t>(state.owner)];
      if (best_client == kNoClient || owner_load > best_owner_load ||
          (owner_load == best_owner_load && state.backlog.size() > best_backlog)) {
        best_client = client;
        best_owner_load = owner_load;
        best_backlog = state.backlog.size();
      }
    }
    if (best_client == kNoClient) return false;
    ClientState& state = clients_.at(best_client);
    std::deque<int>& victim = ready_[static_cast<std::size_t>(state.owner)];
    victim.erase(std::find(victim.begin(), victim.end(), best_client));
    backlog_totals_[static_cast<std::size_t>(state.owner)] -=
        state.backlog.size();
    state.owner = worker;
    backlog_totals_[static_cast<std::size_t>(worker)] += state.backlog.size();
    ready_[static_cast<std::size_t>(worker)].push_back(best_client);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Configuration, written only by set_worker_count / set_idle_hook
  /// before the first next() (both crash on a late call via consumed_).
  /// Deliberately NOT mutex_-guarded: next() validates the worker index
  /// against workers_ before locking, and the leader invokes idle_hook_
  /// with the pool lock dropped — both sound because the fields are
  /// immutable once consumption begins.
  int workers_ = 1;
  WorkerPoolOptions options_;
  std::function<bool()> idle_hook_;

  /// Guards all demux state below (except the atomics and batch_).
  Mutex mutex_{"demux.pool"};
  CondVar cv_;
  std::unordered_map<int, ClientState> clients_ DEDICORE_GUARDED_BY(mutex_);
  /// Per worker: owned clients with a non-empty backlog.
  std::vector<std::deque<int>> ready_ DEDICORE_GUARDED_BY(mutex_){1};
  /// Per worker: client of the event being processed.
  std::vector<int> last_client_ DEDICORE_GUARDED_BY(mutex_){kNoClient};
  /// Per worker: queued events across owned clients ("busyness").
  std::vector<std::uint64_t> backlog_totals_ DEDICORE_GUARDED_BY(mutex_){0};
  /// Leader-only scratch: filled by drain() with the pool lock DROPPED,
  /// so it cannot be mutex_-guarded — mutual exclusion comes from
  /// leader_active_ (exactly one leader at a time, elected under the
  /// lock), which is why followers never touch it.
  std::vector<Event> batch_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> idle_drains_{0};
  std::atomic<std::uint64_t> controls_cancelled_{0};
  bool leader_active_ DEDICORE_GUARDED_BY(mutex_) = false;
  bool drained_ DEDICORE_GUARDED_BY(mutex_) = false;
  bool consumed_ DEDICORE_GUARDED_BY(mutex_) = false;
};

}  // namespace dedicore::transport
