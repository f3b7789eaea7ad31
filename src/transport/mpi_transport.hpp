// MpiTransport — dedicated-*nodes* data path over minimpi point-to-point.
//
// Instead of sharing a segment with its server, a client stages each block
// in private memory and ships event + payload over the wire; the server
// re-homes arriving payloads in its own node-local segment so the
// downstream pipeline (index, plugins, release) is identical to the
// shared-memory path.
//
// Shipping is *batched at iteration granularity* (wire.hpp): publishes
// append records to a pending frame, and the frame goes out as ONE wire
// message when a control event is posted (end_iteration is the natural
// flush point), when flush() is called, when the staged payload crosses
// kMaxFrameBytes, or before any wait that needs the server to see staged
// work.  The wire cost per (client, iteration) is therefore O(1) messages
// instead of O(blocks) — the cross-node mirror of the paper's per-node
// shared-memory aggregation.
//
// Backpressure cannot ride on a shared allocator here, so it is
// credit-based: each client starts with a byte budget (its share of the
// server's segment), debits it on acquire, and gets credit back in a
// kTagCredit message.  Credit is returned at frame granularity: the
// server accumulates the credit of a frame's blocks and sends ONE credit
// message once the plugin pipeline has released them all.
// acquire_blocking flushes the pending frame and waits on the credit
// channel — the exact analogue of blocking on a full segment — and
// try_acquire fails when the budget is spent, which is what the
// skip/adaptive policies key off.
//
// Per-pair FIFO of minimpi messages plus in-order demux of each frame
// gives the same ordering guarantee as the bounded queue: a server sees
// every block of a client's iteration before that iteration's close event.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "minimpi/minimpi.hpp"
#include "transport/shm_transport.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace dedicore::transport {

/// Tags used by the MPI backend (below minimpi's reserved collective
/// range, above anything the examples use on the world communicator).
inline constexpr int kTagFrame = (1 << 20) + 1;
inline constexpr int kTagCredit = (1 << 20) + 2;

/// Staged payload bound before an early flush: bounds client-side frame
/// memory while keeping typical iterations to a single wire message.
inline constexpr std::uint64_t kMaxFrameBytes = 8ull << 20;

class MpiClientTransport final : public ClientTransport {
 public:
  /// `comm` is the communicator both endpoints live in (the world in a
  /// dedicated-nodes deployment); `server_rank` the dedicated I/O rank
  /// serving this client; `credit_bytes` this client's share of the
  /// server's segment.
  /// The optional `faults` injector arms the "client.die" point (target =
  /// this client's rank in `comm`), probed on every publish/post — the
  /// deterministic "client dies after event K" scenario.
  MpiClientTransport(minimpi::Comm comm, int server_rank,
                     std::uint64_t credit_bytes,
                     std::shared_ptr<fault::FaultInjector> faults = nullptr);

  std::optional<shm::BlockRef> try_acquire(std::uint64_t size) override;
  std::optional<shm::BlockRef> acquire_blocking(std::uint64_t size) override;
  std::span<std::byte> view(const shm::BlockRef& block) override;
  void abandon(const shm::BlockRef& block) override;
  bool publish(const Event& event) override;
  Status try_publish(const Event& event) override;
  bool post(const Event& event) override;
  void flush() override;
  /// Process death: the staged (unflushed) frame is LOST — exactly what a
  /// SIGKILL between flush points costs — and a one-event abort frame
  /// ships in its place (the stand-in for the MPI layer's peer-death
  /// notification).  Per-pair FIFO puts the abort behind every frame the
  /// client really sent, so the server's control barrier still orders all
  /// delivered work before reclamation.  Idempotent.
  void die() override;
  [[nodiscard]] bool dead() const override { return dead_; }
  [[nodiscard]] TransportStats stats() const override { return stats_; }

  [[nodiscard]] std::uint64_t credits() const noexcept { return credits_; }
  /// Records staged for the pending frame (tests/diagnostics).
  [[nodiscard]] std::size_t staged_events() const noexcept {
    return frame_records_.size();
  }

 private:
  /// Consumes any credit-return messages waiting in the mailbox.
  void drain_credits();

  /// True when an armed "client.die" fault kills this client at this call.
  bool fault_kills_now();

  /// True when `need` exceeds the whole credit budget: no wait or flush
  /// can ever satisfy it.  Logs the shared "can never fit" diagnostic and
  /// counts an acquire failure, so both acquire flavors fail fast with the
  /// same story instead of the blocking one waiting forever.
  bool can_never_fit(std::uint64_t need);

  minimpi::Comm comm_;
  int server_rank_;
  const std::uint64_t credit_limit_;
  std::uint64_t credits_;
  bool warned_never_fit_ = false;  ///< the sizing diagnostic logs once
  std::uint64_t next_offset_ = 0;  ///< synthetic BlockRef offsets
  /// Acquired-but-unpublished blocks; each buffer reserves sizeof(Event)
  /// of header space in front of the payload so publish() serializes
  /// without copying (view() returns the subspan past the header).
  std::unordered_map<std::uint64_t, std::vector<std::byte>> staging_;
  /// Records of the pending frame, in publish/post order; shipped as one
  /// wire message by flush().
  std::vector<std::vector<std::byte>> frame_records_;
  std::uint32_t frame_event_count_ = 0;
  std::uint64_t frame_payload_bytes_ = 0;
  std::uint64_t frame_seq_ = 0;
  std::shared_ptr<fault::FaultInjector> faults_;
  bool dead_ = false;
  TransportStats stats_;
};

class MpiServerTransport final : public ServerTransport {
 public:
  /// `fabric` provides the local segment arriving payloads are re-homed
  /// in (its queues are unused; pass queue_count = 0).
  MpiServerTransport(minimpi::Comm comm, std::shared_ptr<ShmFabric> fabric);

  /// Wakes workers blocked in next_event() by sending this rank a
  /// zero-byte sentinel on the frame channel.  Per-pair FIFO means every
  /// real frame sent before the callers' stop events has already been
  /// received, so nothing can arrive behind the sentinel.
  void end_of_stream() override;
  std::span<const std::byte> view(const shm::BlockRef& block) override;
  void release(const shm::BlockRef& block) override;
  /// Marks `source` dead: credit completed for its frames from now on is
  /// *swallowed* (counted in credits_reclaimed) instead of being sent to a
  /// corpse — the flow-control analogue of freeing a dead client's
  /// segment blocks.  Idempotent; callable from any worker.
  void reclaim_client(int source) override;
  [[nodiscard]] TransportStats stats() const override;

 protected:
  /// The demux leader's intake: receives one frame, re-homes its payloads,
  /// and appends its events to `out` (residency/credit bookkeeping under
  /// state_mutex_; no demux lock held).  A frame carries one client's
  /// events, so the demux's per-client ownership token keeps per-client
  /// FIFO across a worker pool.  Returns false when the end-of-stream
  /// sentinel arrived.
  bool drain(std::vector<Event>& out) override;

 private:
  /// Credit accounting for one received frame: the credit owed to its
  /// source accumulates as blocks are released and ships as one message
  /// when the last block of the frame is gone.
  struct FrameCredit {
    int source_rank = -1;
    std::uint64_t credit_accum = 0;
    std::uint32_t blocks_outstanding = 0;
  };

  /// A block that arrived over the wire: which frame to credit on release,
  /// and — when the segment was too fragmented to place it — its spill
  /// storage.
  struct Resident {
    std::uint64_t frame_id = 0;
    std::uint64_t credit = 0;
    std::vector<std::byte> spill;  ///< empty when segment-resident
  };

  minimpi::Comm comm_;
  std::shared_ptr<ShmFabric> fabric_;
  /// Guards resident_, frames_, spill offsets and the non-atomic stats —
  /// everything release()/view() share with the demux leader.  Leaf lock:
  /// taken only after demux.pool is released (the leader re-homes
  /// payloads with the pool lock dropped), and a credit send may run
  /// under it (minimpi's internal mailbox locks sit below it).
  mutable Mutex state_mutex_{"mpi.state"};
  std::unordered_map<std::uint64_t, Resident> resident_
      DEDICORE_GUARDED_BY(state_mutex_);
  std::unordered_map<std::uint64_t, FrameCredit> frames_
      DEDICORE_GUARDED_BY(state_mutex_);
  /// reclaim_client targets.
  std::unordered_set<int> dead_ranks_ DEDICORE_GUARDED_BY(state_mutex_);
  /// LEADER-ONLY state, deliberately not state_mutex_-guarded: only the
  /// demux leader runs drain() (one at a time), and successive
  /// leaderships are ordered by the demux's own lock handoff, so these
  /// counters are single-threaded in practice.
  std::uint64_t next_frame_id_ = 0;
  /// Offsets >= capacity mark spills (leader-only, as above).
  std::uint64_t next_spill_offset_;
  TransportStats stats_ DEDICORE_GUARDED_BY(state_mutex_);
};

}  // namespace dedicore::transport
