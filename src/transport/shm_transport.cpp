#include "transport/shm_transport.hpp"

namespace dedicore::transport {

namespace {

shm::BoundedQueue<Event>& queue_of(ShmFabric& fabric, int server_index) {
  DEDICORE_CHECK(server_index >= 0 &&
                     server_index < static_cast<int>(fabric.queues.size()),
                 "ShmTransport: server_index out of range");
  return *fabric.queues[static_cast<std::size_t>(server_index)];
}

}  // namespace

ShmClientTransport::ShmClientTransport(
    std::shared_ptr<ShmFabric> fabric, int server_index, int client_index,
    std::shared_ptr<fault::FaultInjector> faults)
    : fabric_(std::move(fabric)),
      queue_(queue_of(*fabric_, server_index)),
      client_index_(client_index),
      faults_(std::move(faults)) {}

bool ShmClientTransport::fault_kills_now() {
  if (dead_) return true;
  if (!faults_ || client_index_ < 0) return false;
  if (!faults_->should_fire("client.die", client_index_)) return false;
  die();
  return true;
}

std::optional<shm::BlockRef> ShmClientTransport::try_acquire(
    std::uint64_t size) {
  if (dead_) return std::nullopt;
  auto ref = fabric_->segment.try_allocate(size);
  if (!ref) {
    ++stats_.acquire_failures;
    return ref;
  }
  fabric_->ledger_acquired(client_index_, *ref);
  return ref;
}

std::optional<shm::BlockRef> ShmClientTransport::acquire_blocking(
    std::uint64_t size) {
  if (dead_) return std::nullopt;
  auto ref = fabric_->segment.allocate_blocking(size);
  if (ref) fabric_->ledger_acquired(client_index_, *ref);
  return ref;
}

std::span<std::byte> ShmClientTransport::view(const shm::BlockRef& block) {
  return fabric_->segment.view(block);
}

void ShmClientTransport::abandon(const shm::BlockRef& block) {
  fabric_->ledger_released(client_index_, block);
  fabric_->segment.deallocate(block);
}

bool ShmClientTransport::publish(const Event& event) {
  if (fault_kills_now()) return false;
  if (!queue_.push(event)) return false;
  // Ownership of the block passed to the server; the ledger now only
  // tracks what a post-mortem reclaim must free itself.
  fabric_->ledger_released(client_index_, event.block);
  fabric_->ledger_heartbeat(client_index_);
  ++stats_.events_sent;
  return true;
}

Status ShmClientTransport::try_publish(const Event& event) {
  if (fault_kills_now()) return Status::closed("client dead");
  const Status pushed = queue_.try_push(event);
  if (pushed) {
    fabric_->ledger_released(client_index_, event.block);
    fabric_->ledger_heartbeat(client_index_);
    ++stats_.events_sent;
  }
  return pushed;
}

bool ShmClientTransport::post(const Event& event) {
  if (fault_kills_now()) return false;
  if (!queue_.push(event)) return false;
  fabric_->ledger_heartbeat(client_index_);
  ++stats_.events_sent;
  return true;
}

void ShmClientTransport::die() {
  if (dead_) return;
  dead_ = true;
  // Freeze the liveness epoch; if a previous death already did, the
  // monitor has already injected the abort — don't duplicate it.
  if (client_index_ >= 0 && !fabric_->ledger_mark_dead(client_index_))
    return;
  // The node monitor's injection on the corpse's behalf: the abort rides
  // the same ordered queue, so it lands *behind* everything the client
  // actually published — the demux's control barrier then guarantees all
  // delivered work precedes reclamation.
  Event abort;
  abort.type = EventType::kClientAborted;
  abort.source = client_index_;
  queue_.push(abort);
}

ShmServerTransport::ShmServerTransport(std::shared_ptr<ShmFabric> fabric,
                                       int server_index)
    : fabric_(std::move(fabric)), queue_(queue_of(*fabric_, server_index)) {}

std::span<const std::byte> ShmServerTransport::view(
    const shm::BlockRef& block) {
  return std::as_const(fabric_->segment).view(block);
}

void ShmServerTransport::release(const shm::BlockRef& block) {
  fabric_->segment.deallocate(block);
}

void ShmServerTransport::reclaim_client(int source) {
  const std::vector<shm::BlockRef> orphans =
      fabric_->ledger_take_outstanding(source);
  std::uint64_t bytes = 0;
  for (const shm::BlockRef& block : orphans) {
    bytes += block.size;
    fabric_->segment.deallocate(block);
  }
  clients_aborted_.fetch_add(1, std::memory_order_relaxed);
  blocks_reclaimed_.fetch_add(orphans.size(), std::memory_order_relaxed);
  bytes_reclaimed_.fetch_add(bytes, std::memory_order_relaxed);
}

TransportStats ShmServerTransport::stats() const {
  TransportStats out;
  add_intake_stats(out);
  out.clients_aborted = clients_aborted_.load(std::memory_order_relaxed);
  out.blocks_reclaimed = blocks_reclaimed_.load(std::memory_order_relaxed);
  out.bytes_reclaimed = bytes_reclaimed_.load(std::memory_order_relaxed);
  return out;
}

void ShmServerTransport::close_intake() { queue_.close(); }

}  // namespace dedicore::transport
