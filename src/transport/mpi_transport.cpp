#include "transport/mpi_transport.hpp"

#include <cstring>

#include "common/log.hpp"

namespace dedicore::transport {

namespace {

/// Credits are debited/returned in aligned units so both sides agree even
/// though the server's allocator rounds internally.
std::uint64_t aligned(std::uint64_t size) { return (size + 7) & ~std::uint64_t{7}; }

/// Staged blocks reserve wire-header space in front of the payload so
/// publish() can serialize without copying the payload.
constexpr std::uint64_t kHeaderBytes = sizeof(Event);

std::uint64_t credit_from(const minimpi::Message& message) {
  std::uint64_t returned = 0;
  DEDICORE_CHECK(message.payload.size() == sizeof(returned),
                 "MpiClientTransport: malformed credit message");
  std::memcpy(&returned, message.payload.data(), sizeof(returned));
  return returned;
}

}  // namespace

// ---------------------------------------------------------------------------
// MpiClientTransport
// ---------------------------------------------------------------------------

MpiClientTransport::MpiClientTransport(
    minimpi::Comm comm, int server_rank, std::uint64_t credit_bytes,
    std::shared_ptr<fault::FaultInjector> faults)
    : comm_(std::move(comm)),
      server_rank_(server_rank),
      credit_limit_(credit_bytes),
      credits_(credit_bytes),
      faults_(std::move(faults)) {
  DEDICORE_CHECK(comm_.valid(), "MpiClientTransport: invalid communicator");
  DEDICORE_CHECK(server_rank >= 0 && server_rank < comm_.size(),
                 "MpiClientTransport: server rank out of range");
  DEDICORE_CHECK(credit_bytes > 0, "MpiClientTransport: zero credit budget");
}

bool MpiClientTransport::fault_kills_now() {
  if (dead_) return true;
  if (!faults_) return false;
  if (!faults_->should_fire("client.die", comm_.rank())) return false;
  die();
  return true;
}

void MpiClientTransport::die() {
  if (dead_) return;
  dead_ = true;
  // A SIGKILL between flush points loses the staged frame: drop it on the
  // floor.  The credit it held is the server's to reclaim, not ours.
  staging_.clear();
  frame_records_.clear();
  frame_event_count_ = 0;
  frame_payload_bytes_ = 0;
  // The abort frame — the stand-in for the MPI layer's peer-death
  // notification.  Per-pair FIFO lands it behind every frame this client
  // really shipped.
  Event abort;
  abort.type = EventType::kClientAborted;
  abort.source = comm_.rank();
  wire::FrameHeader header;
  header.event_count = 1;
  header.frame_seq = frame_seq_++;
  std::vector<std::vector<std::byte>> parts;
  parts.emplace_back(sizeof(header));
  std::memcpy(parts.front().data(), &header, sizeof(header));
  parts.emplace_back(kHeaderBytes);
  std::memcpy(parts.back().data(), &abort, kHeaderBytes);
  comm_.send_bytes_parts(std::move(parts), server_rank_, kTagFrame);
}

void MpiClientTransport::drain_credits() {
  while (auto m = comm_.try_recv(server_rank_, kTagCredit))
    credits_ += credit_from(*m);
}

bool MpiClientTransport::can_never_fit(std::uint64_t need) {
  if (need <= credit_limit_) return false;
  // One shared diagnostic for both acquire flavors: no amount of waiting
  // (or flushing) produces credit beyond the budget, so this is a sizing
  // error, not backpressure.  Without the fail-fast the blocking path
  // would wait forever on credit that can never cover the request.
  // Logged once per client — a skip/adaptive caller retries every
  // iteration and would otherwise flood the log with the same line.
  if (!warned_never_fit_) {
    warned_never_fit_ = true;
    DEDICORE_LOG(kWarn) << "MpiClientTransport: block of " << need
                        << " aligned bytes can never fit the credit budget ("
                        << credit_limit_
                        << " bytes = this client's share of the server "
                           "segment); grow <buffer size> or add I/O nodes "
                           "(further occurrences not logged)";
  }
  ++stats_.acquire_failures;
  return true;
}

std::optional<shm::BlockRef> MpiClientTransport::try_acquire(
    std::uint64_t size) {
  if (dead_) return std::nullopt;
  const std::uint64_t need = aligned(size);
  if (can_never_fit(need)) return std::nullopt;
  drain_credits();
  if (need > credits_) {
    // Ship the staged frame so the server can process (and eventually
    // credit back) what this client already owes it, then fail: the
    // skip/adaptive policies key off the refusal.
    flush();
    drain_credits();
    if (need > credits_) {
      ++stats_.acquire_failures;
      return std::nullopt;
    }
  }
  credits_ -= need;
  const shm::BlockRef ref{next_offset_, size};
  next_offset_ += need;
  staging_.emplace(ref.offset, std::vector<std::byte>(kHeaderBytes + size));
  return ref;
}

std::optional<shm::BlockRef> MpiClientTransport::acquire_blocking(
    std::uint64_t size) {
  if (dead_) return std::nullopt;
  const std::uint64_t need = aligned(size);
  if (can_never_fit(need)) return std::nullopt;
  drain_credits();
  while (need > credits_) {
    // The analogue of blocking on a full segment: flush the staged frame
    // first (the credit we are about to wait for can only come back once
    // the server has seen those blocks), then wait for the server to
    // release blocks and return their credit.
    flush();
    ++stats_.credit_waits;
    credits_ += credit_from(comm_.recv(server_rank_, kTagCredit));
  }
  credits_ -= need;
  const shm::BlockRef ref{next_offset_, size};
  next_offset_ += need;
  staging_.emplace(ref.offset, std::vector<std::byte>(kHeaderBytes + size));
  return ref;
}

std::span<std::byte> MpiClientTransport::view(const shm::BlockRef& block) {
  auto it = staging_.find(block.offset);
  DEDICORE_CHECK(it != staging_.end(),
                 "MpiClientTransport: view of an unknown block");
  return std::span<std::byte>(it->second).subspan(kHeaderBytes);
}

void MpiClientTransport::abandon(const shm::BlockRef& block) {
  if (dead_) return;  // the corpse runs no cleanup; the server reclaims
  auto it = staging_.find(block.offset);
  DEDICORE_CHECK(it != staging_.end(),
                 "MpiClientTransport: abandon of an unknown block");
  credits_ += aligned(it->second.size() - kHeaderBytes);
  staging_.erase(it);
}

bool MpiClientTransport::publish(const Event& event) {
  if (fault_kills_now()) return false;
  auto it = staging_.find(event.block.offset);
  DEDICORE_CHECK(it != staging_.end(),
                 "MpiClientTransport: publish of an unknown block");
  // The staging buffer already reserves header space: stamp the event into
  // the prefix and move the whole buffer into the pending frame — no
  // payload copy here; the single copy happens when the frame's records
  // are gathered into one wire message at flush time.
  std::vector<std::byte> record = std::move(it->second);
  staging_.erase(it);
  std::memcpy(record.data(), &event, kHeaderBytes);
  frame_payload_bytes_ += record.size() - kHeaderBytes;
  frame_records_.push_back(std::move(record));
  ++frame_event_count_;
  stats_.bytes_shipped += event.block.size;
  ++stats_.blocks_shipped;
  ++stats_.events_sent;
  // Bound client-side staging memory: a huge iteration goes out in a few
  // frames instead of one unbounded one (order is preserved either way).
  if (frame_payload_bytes_ >= kMaxFrameBytes) flush();
  return true;
}

Status MpiClientTransport::try_publish(const Event& event) {
  // Staging is local and the wire channel is unbounded; flow control
  // already happened at acquire time, so this never reports WOULD_BLOCK.
  if (!publish(event)) return Status::closed("client dead");
  return Status::ok();
}

bool MpiClientTransport::post(const Event& event) {
  if (fault_kills_now()) return false;
  std::vector<std::byte> record(kHeaderBytes);
  std::memcpy(record.data(), &event, kHeaderBytes);
  frame_records_.push_back(std::move(record));
  ++frame_event_count_;
  ++stats_.events_sent;
  // Control events (end-iteration, signals, stop) close a batch: ship the
  // frame so the server sees everything up to and including this event.
  flush();
  return true;
}

void MpiClientTransport::flush() {
  if (dead_ || frame_event_count_ == 0) return;
  wire::FrameHeader header;
  header.event_count = frame_event_count_;
  header.frame_seq = frame_seq_++;
  std::vector<std::vector<std::byte>> parts;
  parts.reserve(frame_records_.size() + 1);
  parts.emplace_back(sizeof(header));
  std::memcpy(parts.front().data(), &header, sizeof(header));
  for (auto& record : frame_records_) parts.push_back(std::move(record));
  frame_records_.clear();
  frame_event_count_ = 0;
  frame_payload_bytes_ = 0;
  comm_.send_bytes_parts(std::move(parts), server_rank_, kTagFrame);
  ++stats_.wire_messages;
}

// ---------------------------------------------------------------------------
// MpiServerTransport
// ---------------------------------------------------------------------------

MpiServerTransport::MpiServerTransport(minimpi::Comm comm,
                                       std::shared_ptr<ShmFabric> fabric)
    : comm_(std::move(comm)),
      fabric_(std::move(fabric)),
      next_spill_offset_(fabric_->segment.capacity()) {
  DEDICORE_CHECK(comm_.valid(), "MpiServerTransport: invalid communicator");
}

void MpiServerTransport::end_of_stream() {
  comm_.send_bytes({}, comm_.rank(), kTagFrame);
}

bool MpiServerTransport::drain(std::vector<Event>& out) {
  minimpi::Message m = comm_.recv(minimpi::kAnySource, kTagFrame);
  if (m.payload.empty()) return false;  // end_of_stream() sentinel
  wire::FrameReader reader(m.payload);
  FrameCredit frame;
  frame.source_rank = m.source;

  // Re-home payloads WITHOUT state_mutex_: the allocation + memcpy is the
  // expensive part of the demux, and other workers must keep releasing
  // blocks (credit!) and viewing payloads meanwhile.  next_frame_id_ and
  // next_spill_offset_ are leader-only state, ordered across successive
  // leaders by the demux's own lock handoff.  The blocks homed here are
  // invisible to view()/release() until their events are handed out, so
  // deferring the map inserts to one short critical section is safe.
  const std::uint64_t frame_id = next_frame_id_++;
  std::vector<std::pair<std::uint64_t, Resident>> homed;
  std::uint64_t frame_bytes = 0;
  while (reader.remaining() > 0) {
    std::span<const std::byte> payload;
    Event event = reader.next(&payload);
    if (event.type == EventType::kBlockWritten) {
      const std::uint64_t bytes = event.block.size;
      Resident info;
      info.frame_id = frame_id;
      info.credit = aligned(bytes);

      // Re-home the payload in the local segment; the credit protocol
      // bounds total residency by the segment capacity, but fragmentation
      // can still refuse a fitting block — spill to the heap rather than
      // deadlocking the server on its own free.
      shm::BlockRef ref;
      if (auto placed = fabric_->segment.try_allocate(bytes)) {
        ref = *placed;
        std::memcpy(fabric_->segment.view(ref).data(), payload.data(), bytes);
      } else {
        ref = shm::BlockRef{next_spill_offset_, bytes};
        next_spill_offset_ += info.credit;
        info.spill.assign(payload.begin(), payload.end());
      }
      homed.emplace_back(ref.offset, std::move(info));
      event.block = ref;
      ++frame.blocks_outstanding;
      frame_bytes += bytes;
    }
    out.push_back(event);
  }

  MutexLock state(state_mutex_);
  for (auto& [offset, info] : homed) resident_.emplace(offset, std::move(info));
  stats_.blocks_received_remote += homed.size();
  stats_.bytes_received_remote += frame_bytes;
  // Pure control frames owe no credit and need no accounting entry.
  if (frame.blocks_outstanding > 0) frames_.emplace(frame_id, frame);
  return true;
}

std::span<const std::byte> MpiServerTransport::view(
    const shm::BlockRef& block) {
  MutexLock state(state_mutex_);
  auto it = resident_.find(block.offset);
  DEDICORE_CHECK(it != resident_.end(),
                 "MpiServerTransport: view of an unknown block");
  // Safe to hand out past the unlock: unordered_map references are stable
  // and a resident entry only dies in release(), which the contract orders
  // after every view of that block.
  if (!it->second.spill.empty())
    return std::span<const std::byte>(it->second.spill);
  return std::as_const(fabric_->segment).view(block);
}

void MpiServerTransport::release(const shm::BlockRef& block) {
  std::uint64_t credit_to_send = 0;
  int credit_dest = -1;
  bool segment_resident = false;
  {
    MutexLock state(state_mutex_);
    auto it = resident_.find(block.offset);
    DEDICORE_CHECK(it != resident_.end(),
                   "MpiServerTransport: release of an unknown block");
    const Resident info = std::move(it->second);
    resident_.erase(it);
    segment_resident = info.spill.empty();

    // Credit returns at frame granularity: accumulate until the last block
    // of the frame is released, then ship ONE credit message.
    auto frame_it = frames_.find(info.frame_id);
    DEDICORE_CHECK(frame_it != frames_.end(),
                   "MpiServerTransport: release for an unknown frame");
    FrameCredit& frame = frame_it->second;
    frame.credit_accum += info.credit;
    DEDICORE_CHECK(frame.blocks_outstanding > 0,
                   "MpiServerTransport: frame over-released");
    if (--frame.blocks_outstanding == 0) {
      credit_to_send = frame.credit_accum;
      credit_dest = frame.source_rank;
      frames_.erase(frame_it);
      if (dead_ranks_.count(credit_dest)) {
        // Never send credit to a corpse: swallow it.  The dead client's
        // share of the flow budget is simply retired — exactly what the
        // reclaim invariant ("credits of a dead client return to the
        // system") means on a backend whose credit has no central pool.
        stats_.credits_reclaimed += credit_to_send;
        credit_dest = -1;
      } else {
        ++stats_.wire_messages;
      }
    }
  }
  if (segment_resident) fabric_->segment.deallocate(block);
  if (credit_dest >= 0)
    comm_.send_value(credit_to_send, credit_dest, kTagCredit);
}

void MpiServerTransport::reclaim_client(int source) {
  MutexLock state(state_mutex_);
  if (!dead_ranks_.insert(source).second) return;  // idempotent
  ++stats_.clients_aborted;
}

TransportStats MpiServerTransport::stats() const {
  MutexLock state(state_mutex_);
  TransportStats out = stats_;
  add_intake_stats(out);
  return out;
}

}  // namespace dedicore::transport
