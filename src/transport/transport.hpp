// The pluggable transport abstraction: block placement + event delivery
// between simulation cores (clients) and dedicated cores (servers).
//
// The contract factored out of the original hard-wired shared-memory path:
//
//  * a client *acquires* a writable block (blocking or not — the caller
//    implements the backpressure policy on top of these two primitives),
//    fills it through view(), then *publishes* a kBlockWritten event that
//    references it — after a successful publish the block belongs to the
//    receiving server;
//  * control events (end-iteration, user signals, stop) travel through
//    post() on the same ordered channel, so a server sees every block of
//    an iteration before that iteration's close;
//  * the server consumes the merged event stream with next_event(), reads
//    block payloads through its own view(), and *releases* blocks once the
//    plugin pipeline is done with them — which is also the moment
//    backpressure relaxes (segment space frees / credit returns).
//
// The server side has one intake shape for every worker count: the base
// ServerTransport owns the leader-follower WorkerDemux (worker_demux.hpp),
// and a backend supplies only the demux leader's blocking drain() —
// queue pop_all on shm, frame recv on MPI — plus end_of_stream().  A
// single consumer is a pool of one.
//
// Guarantees every backend must provide (checked by tests/transport_test):
//  * per-client FIFO: events from one client arrive in publish/post order;
//  * no loss, no duplication of published blocks;
//  * try_acquire fails (rather than blocks) when the bounded resource is
//    exhausted, and acquire_blocking succeeds once blocks are released;
//  * payload bytes survive the trip unmodified;
//  * orderly shutdown: after every client posts kClientStop, all prior
//    events have been (or will be) delivered — nothing is dropped.  The
//    shm backend additionally supports an explicit close that drains
//    pending events and then refuses further publishes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "shm/segment.hpp"
#include "transport/message.hpp"
#include "transport/worker_demux.hpp"

namespace dedicore::transport {

/// Data-path observability, uniform across backends.  "remote" counters
/// stay zero on the shared-memory backend; they are how a dedicated-nodes
/// deployment proves blocks actually traveled over MPI.
struct TransportStats {
  std::uint64_t events_sent = 0;
  std::uint64_t events_received = 0;
  std::uint64_t blocks_shipped = 0;        ///< payloads serialized to the wire
  std::uint64_t bytes_shipped = 0;
  std::uint64_t blocks_received_remote = 0;  ///< payloads re-homed on arrival
  std::uint64_t bytes_received_remote = 0;
  std::uint64_t acquire_failures = 0;      ///< try_acquire refusals
  std::uint64_t credit_waits = 0;          ///< blocking waits for flow credit
  /// Messages actually put on the wire by this endpoint (frames on the MPI
  /// backend).  With batching this is O(1) per iteration, not O(blocks) —
  /// the ratio events_sent / wire_messages is the aggregation factor.
  std::uint64_t wire_messages = 0;
  /// Pooled servers with stealing enabled: client-ownership migrations to
  /// idle workers, and units of idle-hook work (write-behind jobs drained
  /// by workers that would otherwise have parked in next_event).
  std::uint64_t steals = 0;
  std::uint64_t idle_drains = 0;
  /// Fault tolerance: dead clients observed (kClientAborted delivered),
  /// resources returned by reclaim_client() — segment blocks / bytes freed
  /// on the shm backend, flow credits swallowed instead of sent on the MPI
  /// backend — and gated control events of dead clients cancelled by the
  /// worker demux instead of being waited on forever.
  std::uint64_t clients_aborted = 0;
  std::uint64_t blocks_reclaimed = 0;
  std::uint64_t bytes_reclaimed = 0;
  std::uint64_t credits_reclaimed = 0;
  std::uint64_t controls_cancelled = 0;
};

/// Client-side endpoint toward one server.  Not thread-safe: one client
/// rank owns one instance.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// Nonblocking block reservation; nullopt when the bounded resource
  /// (segment space or flow credit) cannot fit `size` right now.
  virtual std::optional<shm::BlockRef> try_acquire(std::uint64_t size) = 0;

  /// Blocking reservation: waits for space/credit.  Returns nullopt only
  /// when `size` can never fit, or — on backends with an explicit close
  /// (shm) — when the transport is closed while waiting.  The MPI backend
  /// has no close: its lifecycle ends through the kClientStop protocol,
  /// and the wait relies on the server releasing blocks (liveness holds
  /// whenever one iteration fits the credit budget, the same requirement
  /// a shared segment places on its capacity).
  virtual std::optional<shm::BlockRef> acquire_blocking(std::uint64_t size) = 0;

  /// Writable bytes of an acquired (not yet published) block.
  virtual std::span<std::byte> view(const shm::BlockRef& block) = 0;

  /// Returns an acquired block without publishing it (undo of acquire).
  virtual void abandon(const shm::BlockRef& block) = 0;

  /// Delivers a kBlockWritten event; on success ownership of event.block
  /// passes to the server.  Blocking flavor returns false when the
  /// transport is closed; the caller then abandons the block.
  virtual bool publish(const Event& event) = 0;

  /// Nonblocking flavor: WOULD_BLOCK when the event channel is full (the
  /// skip/adaptive policies key off it), CLOSED after shutdown.
  virtual Status try_publish(const Event& event) = 0;

  /// Delivers a control event (no block payload); false when closed.
  virtual bool post(const Event& event) = 0;

  /// Ships anything the backend has staged for batching (the MPI backend
  /// coalesces an iteration's publishes into one wire frame).  Called by
  /// the client at iteration close; backends also flush internally before
  /// any wait that needs the server to see staged work (liveness), so
  /// forgetting to call this can delay delivery but never deadlock.
  virtual void flush() {}

  /// Simulates the death of this client's process (fault injection and
  /// tests; also invoked internally when an armed "client.die" fault
  /// fires).  The transport emits its backend's death notification — the
  /// shm backend bumps the liveness epoch and enqueues kClientAborted on
  /// the server's intake; the MPI backend ships an abort frame — and then
  /// refuses every further operation, exactly as a SIGKILL'd process
  /// would: staged-but-unflushed batches are lost, acquired-but-unpublished
  /// blocks stay allocated until the server's reclaim path frees them.
  /// Idempotent.
  virtual void die() {}

  /// True once die() has run (or an armed fault killed the client); every
  /// subsequent acquire/publish/post fails as closed.
  [[nodiscard]] virtual bool dead() const { return false; }

  [[nodiscard]] virtual TransportStats stats() const = 0;
};

/// Server-side endpoint: the merged intake of all clients assigned to one
/// server.  One server rank owns one instance; by default a single thread
/// consumes it (worker 0), but after set_worker_count(N) the instance
/// supports N concurrent next_event() callers (a worker pool draining one
/// intake).  Both are the same path: the base class routes every event
/// through its WorkerDemux, and a lone worker is a pool of one.
///
/// Multi-worker contract (checked by tests/transport_test):
///  * every client is *owned* by exactly one worker at any instant, and
///    only the owner is handed that client's events, in publish/post
///    order — per-client FIFO delivery and exactly-once survive the
///    concurrency.  With stealing off (the WorkerPoolOptions default)
///    ownership is the static pinning rule: client c's events are
///    delivered only through next_event(c mod N).  With stealing on, an
///    idle worker may take over a backlogged client (the whole client,
///    never individual events); control events additionally act as
///    per-client barriers, so an iteration's close is never delivered
///    while an earlier event of that client is still being processed;
///  * view() and release() may be called from any worker at any time
///    (an iteration's completing worker releases other clients' blocks);
///  * end_of_stream() declares that no further client events will arrive
///    (every client posted kClientStop and those stops were consumed);
///    workers still blocked in next_event() then return nullopt.  Ordered
///    shutdown is the caller's job: call it only after the last stop, so
///    workers drain before any credit/queue teardown.
class ServerTransport {
 public:
  virtual ~ServerTransport() = default;

  /// Declares `workers` concurrent next_event() consumers and the
  /// client→worker assignment policy (static pinning by default;
  /// options.steal enables work stealing).  Call before the first
  /// next_event() — a later call aborts; without it the transport serves
  /// a single consumer (worker 0).
  void set_worker_count(int workers, WorkerPoolOptions options = {}) {
    demux_.set_worker_count(workers, options);
  }

  /// Installs idle work: a worker about to park in next_event() with
  /// nothing to consume, steal, or lead calls `hook` (without transport
  /// locks) until it returns false ("no work").  The server wires this to
  /// the write-behind queue so disk drain overlaps event waits.  A lone
  /// worker never parks — it leads every drain itself — so it never runs
  /// the hook.  Install before the first next_event().
  void set_idle_hook(std::function<bool()> hook) {
    demux_.set_idle_hook(std::move(hook));
  }

  /// Blocking: the next event addressed to worker `worker`, with any block
  /// payload locally resident.  nullopt when the transport was closed (or
  /// end_of_stream() was called) and every pending event for this worker
  /// has been drained.
  std::optional<Event> next_event(int worker = 0) {
    return demux_.next(
        worker, [this](std::vector<Event>& out) { return drain(out); },
        events_received_);
  }

  /// Wakes every worker blocked in next_event() once the stream is over;
  /// they drain what is already demuxed for them, then see nullopt.
  virtual void end_of_stream() = 0;

  /// Read-only bytes of a block delivered by next_event().  Safe to call
  /// from any worker.
  virtual std::span<const std::byte> view(const shm::BlockRef& block) = 0;

  /// Frees a delivered block; relaxes backpressure toward its producer.
  /// Safe to call from any worker.
  virtual void release(const shm::BlockRef& block) = 0;

  /// Reclaims everything a dead client still holds inside the transport.
  /// Called by the server when it consumes that client's kClientAborted —
  /// i.e. after the control barrier guarantees all of the client's earlier
  /// block events were delivered.  The shm backend deallocates the blocks
  /// the client had acquired but never published (a killed process cannot
  /// free its own shared-memory allocations); the MPI backend marks the
  /// rank dead so release() of its blocks swallows the flow credit instead
  /// of sending it to a corpse.  Blocks already *delivered* to the server
  /// are not touched — the caller releases those through release() as
  /// usual.  Safe to call from any worker; idempotent.
  virtual void reclaim_client(int source) { (void)source; }

  [[nodiscard]] virtual TransportStats stats() const = 0;

 protected:
  /// The backend's blocking intake, run by one demux leader at a time
  /// with no demux lock held: appends a non-empty batch to `out` and
  /// returns true, or returns false once the stream is over (closed and
  /// empty, or the end-of-stream sentinel).
  virtual bool drain(std::vector<Event>& out) = 0;

  /// Adds the intake counters the base class keeps (delivered events and
  /// the demux's steal / idle-drain / cancellation counts) to `out`.
  void add_intake_stats(TransportStats& out) const {
    out.events_received = events_received_.load(std::memory_order_relaxed);
    out.steals = demux_.steals();
    out.idle_drains = demux_.idle_drains();
    out.controls_cancelled = demux_.controls_cancelled();
  }

 private:
  WorkerDemux demux_;
  std::atomic<std::uint64_t> events_received_{0};
};

}  // namespace dedicore::transport
