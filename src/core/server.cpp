#include "core/server.hpp"

#include <thread>

#include "common/clock.hpp"
#include "common/log.hpp"

namespace dedicore::core {

Server::Server(std::shared_ptr<NodeRuntime> node, int server_index,
               std::unique_ptr<transport::ServerTransport> transport,
               int client_count, int worker_count)
    : node_(std::move(node)),
      server_index_(server_index),
      transport_(std::move(transport)),
      client_count_(client_count),
      worker_count_(worker_count) {
  DEDICORE_CHECK(server_index >= 0 &&
                     server_index < static_cast<int>(node_->indexes.size()),
                 "Server: server_index out of range");
  DEDICORE_CHECK(transport_ != nullptr, "Server: null transport");
  // client_count may be 0 (more servers than clients): run() returns
  // immediately on such a server.
  DEDICORE_CHECK(client_count >= 0, "Server: negative client count");
  DEDICORE_CHECK(worker_count >= 1, "Server: worker count must be >= 1");
  register_builtin_plugins();
  for (const auto& action : node_->config.actions())
    actions_.push_back(BoundAction{action, make_plugin(action.plugin, action.params)});
}

Server::~Server() = default;

Plugin* Server::find_plugin(const std::string& event,
                            const std::string& plugin_name) {
  for (auto& bound : actions_)
    if (bound.spec.event == event && bound.spec.plugin == plugin_name)
      return bound.plugin.get();
  return nullptr;
}

void Server::run() {
  stats_.workers = worker_count_;
  if (client_count_ > 0) {
    transport::WorkerPoolOptions assignment;
    assignment.steal = node_->config.steal_enabled();
    assignment.steal_threshold = node_->config.steal_threshold();
    transport_->set_worker_count(worker_count_, assignment);
    // Idle-worker write-behind drain: a worker parked in next_event()
    // with nothing to consume or steal performs disk writes instead of
    // sleeping, overlapping drain with event waits.  A lone worker is
    // always the demux leader and never parks, so it never reaches this
    // hook — complete_iteration() drains inline for it instead.
    if (node_->write_behind != nullptr)
      transport_->set_idle_hook([wb = node_->write_behind.get()] {
        return wb->drain_some(1) > 0;
      });
    // Worker 0 runs on the calling thread, workers 1..N-1 on their own.
    std::vector<WorkerLedger> ledgers(static_cast<std::size_t>(worker_count_));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(worker_count_ - 1));
    for (int w = 1; w < worker_count_; ++w)
      pool.emplace_back([this, w, &ledgers] {
        worker_loop(w, ledgers[static_cast<std::size_t>(w)]);
      });
    worker_loop(0, ledgers[0]);
    for (auto& t : pool) t.join();
    // The pool has drained: folding ledgers and reading transport stats
    // below cannot race a live worker.
    for (const WorkerLedger& ledger : ledgers) {
      stats_.idle_seconds += ledger.idle_seconds;
      stats_.busy_seconds += ledger.busy_seconds;
      stats_.events_processed += ledger.events;
    }
  }
  // Final drain: the write-behind queue may still hold images enqueued by
  // the last iterations (workers only drain opportunistically).  Flushing
  // before returning means a caller that inspects the backend after
  // run_server() sees every file the run produced.
  if (node_->write_behind != nullptr) node_->write_behind->drain_all();

  const transport::TransportStats t = transport_->stats();
  stats_.blocks_received_remote = t.blocks_received_remote;
  stats_.bytes_received_remote = t.bytes_received_remote;
  stats_.steals = t.steals;
  stats_.idle_drain_jobs = t.idle_drains;
  // Fold in what the transport's own reclaim freed (the liveness ledger's
  // acquired-but-unpublished blocks) on top of the indexed blocks the
  // abort handler dropped.
  stats_.blocks_reclaimed += t.blocks_reclaimed;
  stats_.bytes_reclaimed += t.bytes_reclaimed;
  // Quiescent, but the (uncontended) lock keeps pipeline_times_'s
  // GUARDED_BY provable.
  MutexLock state(state_mutex_);
  stats_.pipeline_time = pipeline_times_.summary();
}

void Server::worker_loop(int worker, WorkerLedger& ledger) {
  while (!done_.load(std::memory_order_acquire)) {
    Stopwatch idle;
    auto event = transport_->next_event(worker);
    ledger.idle_seconds += idle.elapsed_seconds();
    if (!event) break;  // transport closed/ended and drained
    Stopwatch busy;
    handle(*event);
    ledger.busy_seconds += busy.elapsed_seconds();
    ++ledger.events;
  }
}

void Server::handle(const Event& event) {
  switch (event.type) {
    case EventType::kBlockWritten: {
      // A zombie block — published by a client whose abort was already
      // consumed (the demux only guarantees pre-abort events precede the
      // abort; stragglers may trail it) — is released, never indexed: its
      // segment space / flow credit returns immediately.
      bool zombie = false;
      {
        MutexLock state(state_mutex_);
        if (dead_clients_.count(event.source)) {
          zombie = true;
          ++stats_.blocks_reclaimed;
          stats_.bytes_reclaimed += event.block.size;
        }
      }
      if (zombie) {
        transport_->release(event.block);
        break;
      }
      BlockInfo info;
      info.variable = event.variable;
      info.source = event.source;
      info.iteration = event.iteration;
      info.block_id = event.block_id;
      info.block = event.block;
      for (int i = 0; i < 4; ++i) info.global_offset[i] = event.global_offset[i];
      node_->indexes[static_cast<std::size_t>(server_index_)]->insert(info);
      MutexLock state(state_mutex_);
      ++stats_.blocks_received;
      stats_.bytes_received += event.block.size;
      break;
    }
    case EventType::kEndIteration:
    case EventType::kIterationSkipped: {
      bool completes = false;
      {
        MutexLock state(state_mutex_);
        if (event.type == EventType::kIterationSkipped) ++stats_.client_skips;
        std::set<int>& closed = iteration_closes_[event.iteration];
        closed.insert(event.source);
        if (iteration_satisfied_locked(closed)) {
          iteration_closes_.erase(event.iteration);
          completes = true;
        }
      }
      // Outside the state lock: the pipeline can run long, and other
      // workers must keep indexing/closing unrelated iterations meanwhile.
      if (completes) complete_iteration(event.iteration);
      break;
    }
    case EventType::kUserSignal: {
      const auto id = static_cast<std::size_t>(event.signal_id);
      DEDICORE_CHECK(id < node_->signal_names.size(),
                     "Server: signal id out of range");
      MutexLock pipeline(pipeline_mutex_);
      fire(node_->signal_names[id], event.iteration, &event);
      break;
    }
    case EventType::kClientStop: {
      bool last = false;
      {
        MutexLock state(state_mutex_);
        ++stopped_clients_;
        last = all_clients_finished_locked();
      }
      // Every client's stop is its final event and stops arrive after all
      // that client's data (per-client FIFO), so at this point every event
      // of the run has been handled.
      if (last) finish();
      break;
    }
    case EventType::kClientAborted: {
      handle_client_abort(event.source);
      break;
    }
  }
}

bool Server::iteration_satisfied_locked(
    const std::set<int>& closed_sources) const {
  std::size_t effective = closed_sources.size();
  for (int dead : dead_clients_)
    if (!closed_sources.count(dead)) ++effective;
  return effective >= static_cast<std::size_t>(client_count_);
}

void Server::handle_client_abort(int source) {
  // The abort was a gated control: every event this client published
  // before dying has been delivered AND processed (the demux's barrier),
  // so the index already holds its full pre-death contribution and the
  // reclaim below cannot race its own intake.
  DEDICORE_LOG(kWarn) << "node " << node_->node_id << " server "
                      << server_index_ << ": client " << source
                      << " died; reclaiming";

  // 1. Mark dead FIRST so the transport stops crediting the corpse (MPI)
  //    before any of its blocks are released below, and this server's
  //    workers treat stragglers as zombies.
  {
    MutexLock state(state_mutex_);
    if (!dead_clients_.insert(source).second) return;  // duplicate abort
    ++stats_.clients_aborted;
  }
  transport_->reclaim_client(source);

  // 2. The client's partial data, per policy.  drop_iteration: its
  //    indexed blocks are released now — an incomplete iteration's data is
  //    worthless downstream, and holding it pins segment space forever.
  //    keep_partial: the blocks stay indexed and persist with whatever
  //    iteration they belong to when the survivors close it.
  if (node_->config.on_client_failure() == ClientFailurePolicy::kDropIteration) {
    auto& index = *node_->indexes[static_cast<std::size_t>(server_index_)];
    std::uint64_t blocks = 0, bytes = 0;
    for (const auto& info : index.extract_client(source)) {
      ++blocks;
      bytes += info.block.size;
      transport_->release(info.block);
    }
    MutexLock state(state_mutex_);
    stats_.blocks_reclaimed += blocks;
    stats_.bytes_reclaimed += bytes;
  }

  // 3. Reconcile open iterations: ones only waiting on the corpse's close
  //    complete now, and the run terminates if every client has stopped
  //    or died.
  std::vector<Iteration> newly_complete;
  bool last = false;
  {
    MutexLock state(state_mutex_);
    for (auto it = iteration_closes_.begin(); it != iteration_closes_.end();) {
      if (iteration_satisfied_locked(it->second)) {
        newly_complete.push_back(it->first);
        it = iteration_closes_.erase(it);
      } else {
        ++it;
      }
    }
    last = all_clients_finished_locked();
  }
  for (Iteration iteration : newly_complete) complete_iteration(iteration);
  if (last) finish();
}

void Server::finish() {
  // Ordered shutdown: mark the run done, then wake the other workers out
  // of next_event() — they drain what is already demuxed and exit.
  done_.store(true, std::memory_order_release);
  transport_->end_of_stream();
}

void Server::fire(const std::string& event_name, Iteration iteration,
                  const Event* trigger) {
  for (auto& bound : actions_) {
    if (bound.spec.event != event_name) continue;
    PluginContext context{*node_, transport_.get(), server_index_, iteration,
                          trigger, &bound.spec.params, &stats_};
    bound.plugin->run(context);
  }
}

void Server::complete_iteration(Iteration iteration) {
  Stopwatch pipeline;
  {
    // Plugins are not required to be thread-safe: at most one pipeline per
    // server at a time, even when iterations complete on several workers.
    MutexLock serialize(pipeline_mutex_);
    fire("end_iteration", iteration, nullptr);
  }

  // Release the iteration's blocks: the plugins are done with them.  The
  // transport frees segment space (shm) or returns flow credit (mpi).
  auto& index = *node_->indexes[static_cast<std::size_t>(server_index_)];
  for (const auto& block : index.extract_iteration(iteration))
    transport_->release(block.block);

  {
    MutexLock state(state_mutex_);
    ++stats_.iterations_completed;
    pipeline_times_.add(pipeline.elapsed_seconds());
  }

  // Opportunistic write-behind drain, *after* the blocks are released:
  // the disk write happens on this worker's time but no longer gates the
  // credit/segment return to clients.  With a worker pool the idle hook
  // owns the drain instead — workers parked in next_event perform the
  // disk writes while this one returns to the (possibly backlogged)
  // event stream, so drain overlaps intake rather than stalling it.  A
  // lone worker never parks, so the hook never runs for it and it drains
  // here; a small batch keeps it from absorbing the whole backlog while
  // events queue up.
  if (node_->write_behind != nullptr && worker_count_ == 1)
    node_->write_behind->drain_some(4);

  DEDICORE_LOG(kDebug) << "node " << node_->node_id << " server "
                       << server_index_ << " completed iteration " << iteration;
}

}  // namespace dedicore::core
