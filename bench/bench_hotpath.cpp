// Hot-path benchmark: the data-plane costs of the dedicated-core path,
// one section per layer.
//
//   1. allocator churn  — concurrent allocate/free against a fragmented
//      segment (shm::Segment's size-segregated best-fit);
//   2. queue throughput — N producers / 1 consumer through the two-lock
//      BoundedQueue (single-event and batched push_all/pop_all paths);
//   3. MPI batching     — wire messages per (client, iteration) through
//      MpiTransport, against the analytic pre-PR count of one message per
//      block plus one per control event;
//   4. server worker scaling (PR 4) — event throughput of one
//      ShmServerTransport drained by a pool of N concurrent next_event()
//      consumers (the dedicated-I/O-rank worker pool), with a synthetic
//      per-event pipeline cost standing in for indexing + plugins.
//      --workers N,N,... selects the sweep (default 1,2,4,8).  On a host
//      with >= 4 cores the service cost is a real spin and the result is a
//      wall-clock measurement; on narrower machines the bench falls back
//      to the virtual-clock model (mode recorded in the JSON).
//   5. posix storage backend (PR 5) — real-disk emit throughput of
//      h5lite-sized images through storage::PosixBackend into a scratch
//      directory (TempDir-style, removed afterwards): the synchronous
//      create/write/fsync/close path vs. the write-behind queue drained
//      by worker threads.  Unlike sections 1–4 these are *measured disk*
//      numbers, not modelled ones — see docs/performance.md.
//   6. emit-path compression (PR 6) — bench_sparetime-style CM1 loads
//      driven through the *real* pipeline (Runtime + store plugin +
//      EmitStage + write-behind + posix backend), once raw and once with
//      xor+lzs: bytes-to-disk, achieved ratio, dedicated-core codec time
//      as a share of worker time (the §IV.D spare-cycle claim), and the
//      effective MB/s of raw payload retired per wall second.
//   7. skewed clients + work stealing (this PR) — the same worker pool
//      fed a pathological client mix (one client producing >= 75 % of the
//      events) twice: once with static client->worker pinning and once
//      with ownership-token work stealing.  Pinning serializes the hot
//      client on one worker; stealing spreads its backlog across the
//      pool.  Structural gates: steals observed, exactly-once asserted.
//      A twin run attaches a real posix write-behind queue and asserts
//      that *parked* workers drained it (idle_drains > 0) — the
//      drain-while-idle half of the stealing PR.
//   8. client death (PR 8) — throughput retained while a client dies
//      mid-stream and its segment blocks are reclaimed.
//   9. sharded multi-root storage (PR 9) — aggregate write throughput of
//      the chunking + placement + integrity stack over 1/2/4 posix roots,
//      drained chunk-granularly by the write-behind pool.  On >= 4 cores
//      the MB/s are wall-clock; narrower hosts use the deterministic
//      placement model (makespan = the busiest root's bytes at a fixed
//      per-root bandwidth).  Structural gates run in both modes: the
//      4-root layout must spread bytes (roots x balance >= 1.5x), a
//      4-root twin must read back byte-identical to a single-root run,
//      a flipped bit must surface as DATA_LOSS, and replication=2 must
//      recover it.
//
// Modes: default is a full run sized for stable numbers; --smoke shrinks
// everything to a CTest-friendly second (registered with label
// bench-smoke so the harness cannot bit-rot); --json FILE emits the
// machine-readable result consumed by scripts/run_bench.sh, which appends
// it to BENCH_hotpath.json — the perf-regression trajectory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <filesystem>

#include "common/clock.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "minimpi/minimpi.hpp"
#include "shm/bounded_queue.hpp"
#include "shm/segment.hpp"
#include "sim/cm1_proxy.hpp"
#include "sim/workload.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/write_behind.hpp"
#include "transport/message.hpp"
#include "transport/mpi_transport.hpp"
#include "transport/shm_transport.hpp"

namespace {

using dedicore::Rng;
using dedicore::transport::Event;
using dedicore::transport::EventType;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// 1. Allocator churn
// ---------------------------------------------------------------------------

struct ChurnConfig {
  std::uint64_t capacity = 1ull << 26;
  int fragment_pins = 4096;       ///< small pinned blocks fragmenting the front
  std::uint64_t pin_bytes = 2048; ///< size of each pin (and of each hole)
  int ops_per_thread = 100000;    ///< allocate/free pairs per thread
  int pool_size = 16;             ///< live blocks each thread cycles through
};

/// Drives `ops_per_thread` allocate/free pairs per thread against a
/// fragmented segment.  Returns allocate+free operations per second.
///
/// The fragmentation models a long-running server's segment: thousands of
/// small live blocks with freed holes between them at low offsets.  The
/// churn allocates blocks larger than any hole, so a first-fit scan walks
/// the entire hole band on every allocation — the O(n) behaviour the
/// size-segregated index removes (best-fit jumps past all of them in one
/// lower_bound).
double run_allocator_churn(const ChurnConfig& cfg, int threads) {
  dedicore::shm::Segment segment(cfg.capacity);

  std::vector<dedicore::shm::BlockRef> pins;
  for (int i = 0; i < cfg.fragment_pins; ++i) {
    auto ref = segment.try_allocate(cfg.pin_bytes);
    if (!ref) break;
    pins.push_back(*ref);
  }
  for (std::size_t i = 0; i < pins.size(); i += 2) segment.deallocate(pins[i]);

  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x9E3779B9u + static_cast<std::uint64_t>(t));
      std::vector<dedicore::shm::BlockRef> pool;
      pool.reserve(static_cast<std::size_t>(cfg.pool_size));
      for (int op = 0; op < cfg.ops_per_thread; ++op) {
        if (pool.size() < static_cast<std::size_t>(cfg.pool_size)) {
          // Larger than every hole: a first-fit scan cannot stop early.
          const std::uint64_t size = (8ull << 10) + rng.next_below(24 << 10);
          if (auto ref = segment.try_allocate(size)) {
            pool.push_back(*ref);
            continue;
          }
        }
        if (!pool.empty()) {
          const std::size_t pick = rng.next_below(pool.size());
          segment.deallocate(pool[pick]);
          pool[pick] = pool.back();
          pool.pop_back();
        }
      }
      for (const auto& ref : pool) segment.deallocate(ref);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed = seconds_since(start);

  for (std::size_t i = 1; i < pins.size(); i += 2) segment.deallocate(pins[i]);
  return static_cast<double>(threads) * cfg.ops_per_thread / elapsed;
}

// ---------------------------------------------------------------------------
// 2. Queue throughput
// ---------------------------------------------------------------------------

struct QueueConfig {
  std::size_t capacity = 4096;
  int events_per_producer = 200000;
  std::size_t batch = 64;
};

/// The ShmTransport shape: producers push per event (a publish is per
/// block), and the consumer drains bursts with pop_all — what the shm
/// server intake's demux leader does.
double run_queue_popall(const QueueConfig& cfg, int producers) {
  dedicore::shm::BoundedQueue<Event> queue(cfg.capacity);
  const long total =
      static_cast<long>(producers) * cfg.events_per_producer;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      Event event;
      event.type = EventType::kBlockWritten;
      for (int i = 0; i < cfg.events_per_producer; ++i) (void)queue.push(event);
    });
  }
  long received = 0;
  std::vector<Event> sink;
  while (received < total) {
    sink.clear();
    received += static_cast<long>(queue.pop_all(sink));
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(total) / seconds_since(start);
}

/// Fully batched: producers push_all() an iteration's worth of events in
/// one critical section, the consumer drains with pop_all().
double run_queue_batched(const QueueConfig& cfg, int producers) {
  dedicore::shm::BoundedQueue<Event> queue(cfg.capacity);
  const long total =
      static_cast<long>(producers) * cfg.events_per_producer;
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      std::vector<Event> burst(cfg.batch);
      for (Event& event : burst) event.type = EventType::kBlockWritten;
      int sent = 0;
      while (sent < cfg.events_per_producer) {
        const std::size_t n =
            std::min(cfg.batch,
                     static_cast<std::size_t>(cfg.events_per_producer - sent));
        (void)queue.push_all(std::span<Event>(burst.data(), n));
        sent += static_cast<int>(n);
      }
    });
  }
  long received = 0;
  std::vector<Event> sink;
  while (received < total) {
    sink.clear();
    received += static_cast<long>(queue.pop_all(sink));
  }
  for (auto& t : threads) t.join();
  return static_cast<double>(total) / seconds_since(start);
}

// ---------------------------------------------------------------------------
// 3. MPI wire messages per iteration
// ---------------------------------------------------------------------------

struct MpiBatchConfig {
  int clients = 3;
  int iterations = 32;
  int blocks_per_iteration = 8;
  std::uint64_t block_bytes = 4096;
};

struct MpiBatchResult {
  double wire_per_client_iteration = 0;       ///< measured, batched
  double unbatched_per_client_iteration = 0;  ///< analytic pre-PR count
  double events_per_wire_message = 0;         ///< aggregation factor
};

MpiBatchResult run_mpi_batching(const MpiBatchConfig& cfg) {
  namespace transport = dedicore::transport;
  namespace minimpi = dedicore::minimpi;

  std::vector<transport::TransportStats> client_stats(
      static_cast<std::size_t>(cfg.clients));
  // Two iterations of credit headroom: the server releases iteration k's
  // blocks when its close event lands, so a client producing iteration
  // k+1 never stalls (and never has to split an iteration across frames).
  const std::uint64_t share = static_cast<std::uint64_t>(
      2 * cfg.blocks_per_iteration + 2) * (cfg.block_bytes + 64);

  minimpi::run_world(cfg.clients + 1, [&](minimpi::Comm& world) {
    if (world.rank() < cfg.clients) {
      transport::MpiClientTransport client(world, cfg.clients, share);
      for (int it = 0; it < cfg.iterations; ++it) {
        // A simulation computes between outputs — which is when the
        // server catches up and credit flows back.  Without this pause
        // the client outruns its credit and iterations split into
        // partial frames, measuring a client no real deployment has.
        if (it > 0) std::this_thread::sleep_for(std::chrono::microseconds(500));
        for (int b = 0; b < cfg.blocks_per_iteration; ++b) {
          auto ref = client.acquire_blocking(cfg.block_bytes);
          Event event;
          event.type = EventType::kBlockWritten;
          event.source = world.rank();
          event.iteration = it;
          event.block_id = static_cast<std::uint32_t>(b);
          event.block = *ref;
          client.publish(event);
        }
        Event end;
        end.type = EventType::kEndIteration;
        end.source = world.rank();
        end.iteration = it;
        client.post(end);  // the flush point: ships the iteration's frame
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = world.rank();
      client.post(stop);
      client_stats[static_cast<std::size_t>(world.rank())] = client.stats();
    } else {
      auto fabric = std::make_shared<transport::ShmFabric>(
          static_cast<std::uint64_t>(cfg.clients) * share, 0, 0);
      transport::MpiServerTransport server(world, fabric);
      // Minimal server loop: release blocks when their iteration closes,
      // mirroring core::Server::complete_iteration.
      std::vector<std::vector<dedicore::shm::BlockRef>> held(
          static_cast<std::size_t>(cfg.clients));
      int stops = 0;
      while (stops < cfg.clients) {
        auto event = server.next_event();
        if (!event) break;
        const auto source = static_cast<std::size_t>(event->source);
        switch (event->type) {
          case EventType::kBlockWritten:
            held[source].push_back(event->block);
            break;
          case EventType::kEndIteration:
            for (const auto& ref : held[source]) server.release(ref);
            held[source].clear();
            break;
          case EventType::kClientStop:
            ++stops;
            break;
          default:
            break;
        }
      }
    }
  });

  std::uint64_t wire = 0, events = 0;
  for (const auto& s : client_stats) {
    wire += s.wire_messages;
    events += s.events_sent;
  }
  MpiBatchResult result;
  const double client_iterations =
      static_cast<double>(cfg.clients) * cfg.iterations;
  result.wire_per_client_iteration = static_cast<double>(wire) / client_iterations;
  // Pre-PR wiring shipped one message per published block and one per
  // control event: blocks + end-iteration per iteration, plus one stop.
  result.unbatched_per_client_iteration =
      static_cast<double>(cfg.blocks_per_iteration) + 1.0 +
      1.0 / cfg.iterations;
  result.events_per_wire_message =
      static_cast<double>(events) / static_cast<double>(wire);
  return result;
}

// ---------------------------------------------------------------------------
// 4. Server worker scaling (the PR-4 axis)
// ---------------------------------------------------------------------------

struct WorkerScaleConfig {
  int clients = 8;  ///< pinning cap: a pool wider than this stops scaling
  int events_per_client = 30000;
  std::uint64_t block_bytes = 2048;
  std::uint64_t capacity = 1ull << 26;
  std::size_t queue_capacity = 4096;
  /// Per-event pipeline service (indexing + plugins).  In wall-clock mode
  /// (hosts with >= 4 cores) the worker genuinely spins this long and the
  /// makespan is wall time; otherwise the cost is advanced on each
  /// worker's *virtual* clock (common/clock virtual-time hook, the same
  /// determinism device the timing suites use) — physical-thread scaling
  /// is meaningless on a 1-core CI box, so the fallback measures what the
  /// pool adds structurally: how the demux + client->worker assignment
  /// parallelize the service time, as events per modeled second.
  double service_seconds_per_event = 10e-6;
};

/// True when a wall-clock pool measurement is meaningful on this host: the
/// sweep needs the workers to actually run in parallel.
bool wall_clock_capable() {
  return std::thread::hardware_concurrency() >= 4;
}

/// Drives `clients` producers through one ShmServerTransport drained by
/// `workers` concurrent next_event() consumers (the server worker pool).
/// Returns events per second — wall seconds when `wall_clock`, else
/// modeled seconds (makespan = the busiest worker's virtual clock); aborts
/// the bench on any lost or duplicated event — the throughput claim is
/// worthless without the exactly-once one.
double run_worker_scaling(const WorkerScaleConfig& cfg, int workers,
                          bool wall_clock) {
  namespace transport = dedicore::transport;
  auto fabric = std::make_shared<transport::ShmFabric>(
      cfg.capacity, /*queue_count=*/1, cfg.queue_capacity);
  transport::ShmServerTransport server(fabric, 0);
  server.set_worker_count(workers);

  const long total =
      static_cast<long>(cfg.clients) * (cfg.events_per_client + 1);
  std::atomic<int> stops{0};
  // Per-(client, block) delivery counters: a total-only check would let a
  // loss paired with a duplication cancel out and pass the gate.
  std::vector<std::atomic<int>> delivered(
      static_cast<std::size_t>(cfg.clients) *
      static_cast<std::size_t>(cfg.events_per_client));
  std::vector<std::atomic<int>> stop_delivered(
      static_cast<std::size_t>(cfg.clients));
  std::vector<double> worker_busy(static_cast<std::size_t>(workers), 0.0);

  if (!wall_clock) dedicore::set_virtual_time_enabled(true);
  const auto wall_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.clients + workers));
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0);
      for (int i = 0; i < cfg.events_per_client; ++i) {
        auto ref = client.acquire_blocking(cfg.block_bytes);
        if (!ref) return;
        Event event;
        event.type = EventType::kBlockWritten;
        event.source = c;
        event.block_id = static_cast<std::uint32_t>(i);
        event.block = *ref;
        client.publish(event);
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = c;
      client.post(stop);
    });
  }
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->type == EventType::kBlockWritten) {
          delivered[static_cast<std::size_t>(event->source) *
                        static_cast<std::size_t>(cfg.events_per_client) +
                    event->block_id]
              .fetch_add(1, std::memory_order_relaxed);
          // Wall mode burns the service for real.  Modeled mode advances
          // this thread's virtual clock instantly and then yields: during
          // a real service window the *other* workers run, and on a
          // narrow host the yield is what gives them that window —
          // without it one worker monopolizes the demux between context
          // switches and the model measures the scheduler, not the pool.
          if (wall_clock) {
            dedicore::spin_seconds(cfg.service_seconds_per_event);
          } else {
            dedicore::sleep_seconds(cfg.service_seconds_per_event);
            std::this_thread::yield();
          }
          server.release(event->block);
        } else if (event->type == EventType::kClientStop) {
          stop_delivered[static_cast<std::size_t>(event->source)].fetch_add(
              1, std::memory_order_relaxed);
          if (stops.fetch_add(1) + 1 == cfg.clients) server.end_of_stream();
        }
      }
      // The thread's virtual clock is exactly its accumulated service
      // (only meaningful in modeled mode).
      worker_busy[static_cast<std::size_t>(w)] = dedicore::now_seconds();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_elapsed = seconds_since(wall_start);
  if (!wall_clock) dedicore::set_virtual_time_enabled(false);

  long exactly_once = 0;
  for (const auto& count : delivered)
    if (count.load(std::memory_order_relaxed) == 1) ++exactly_once;
  for (const auto& count : stop_delivered)
    if (count.load(std::memory_order_relaxed) == 1) ++exactly_once;
  if (exactly_once != total) {
    std::fprintf(stderr,
                 "FAIL: worker pool delivered %ld of %ld events exactly once "
                 "(workers=%d)\n",
                 exactly_once, total, workers);
    std::exit(1);
  }
  const double makespan =
      wall_clock ? wall_elapsed
                 : *std::max_element(worker_busy.begin(), worker_busy.end());
  return static_cast<double>(total) / makespan;
}

// ---------------------------------------------------------------------------
// 5. Posix storage backend (real disk, not modelled)
// ---------------------------------------------------------------------------

struct PosixBenchConfig {
  int files = 64;                          ///< h5lite-sized images emitted
  std::uint64_t image_bytes = 1ull << 20;  ///< 1 MiB per image
  std::uint64_t budget_bytes = 8ull << 20; ///< write-behind byte budget
  int drainers = 2;                        ///< stand-in server workers
};

struct PosixBenchResult {
  double sync_mb_per_sec = 0.0;          ///< create/write/fsync/close inline
  double write_behind_mb_per_sec = 0.0;  ///< enqueue + concurrent drain
  double enqueue_block_seconds = 0.0;    ///< producer stalls (backpressure)
};

/// Emits `files` images through PosixBackend into a fresh scratch
/// directory under the system temp dir, once synchronously and once
/// through a WriteBehind queue drained by `drainers` threads, verifying
/// every byte landed.  The scratch directory is removed afterwards.
PosixBenchResult run_posix_backend(const PosixBenchConfig& cfg) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_posix_" + std::to_string(::getpid()));
  PosixBenchResult result;

  std::vector<std::byte> image(cfg.image_bytes);
  Rng rng(0xC0FFEE);
  for (auto& b : image) b = static_cast<std::byte>(rng.next_below(256));
  const double total_mb = static_cast<double>(cfg.files) *
                          static_cast<double>(cfg.image_bytes) / 1e6;

  {
    storage::PosixBackend backend(scratch / "sync");
    const auto start = Clock::now();
    for (int i = 0; i < cfg.files; ++i) {
      const auto status = storage::write_image(
          backend, "node0/it" + std::to_string(i) + ".h5l", image);
      if (!status.is_ok()) {
        std::fprintf(stderr, "FAIL: posix sync write: %s\n",
                     status.to_string().c_str());
        std::exit(1);
      }
    }
    result.sync_mb_per_sec = total_mb / seconds_since(start);
    if (backend.stats().bytes_written !=
        static_cast<std::uint64_t>(cfg.files) * cfg.image_bytes) {
      std::fprintf(stderr, "FAIL: posix sync byte accounting\n");
      std::exit(1);
    }
  }

  {
    storage::PosixBackend backend(scratch / "wb");
    storage::WriteBehind queue(backend, cfg.budget_bytes);
    const auto start = Clock::now();
    std::vector<std::thread> drainers;
    std::atomic<bool> done{false};
    for (int d = 0; d < cfg.drainers; ++d) {
      drainers.emplace_back([&] {
        while (!done.load(std::memory_order_acquire))
          if (queue.drain_some(4) == 0) std::this_thread::yield();
      });
    }
    for (int i = 0; i < cfg.files; ++i)
      queue.enqueue({"node0/it" + std::to_string(i) + ".h5l", 0, image});
    queue.drain_all();
    done.store(true, std::memory_order_release);
    for (auto& d : drainers) d.join();
    result.write_behind_mb_per_sec = total_mb / seconds_since(start);
    result.enqueue_block_seconds = queue.stats().enqueue_block_seconds;
    const auto stats = queue.stats();
    if (stats.jobs_written != static_cast<std::uint64_t>(cfg.files) ||
        stats.jobs_failed != 0) {
      std::fprintf(stderr, "FAIL: write-behind drained %llu/%d jobs\n",
                   static_cast<unsigned long long>(stats.jobs_written),
                   cfg.files);
      std::exit(1);
    }
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------------
// 6. Emit-path compression (real pipeline, real disk)
// ---------------------------------------------------------------------------

struct CompressionBenchConfig {
  int iterations = 16;
  std::uint64_t grid = 24;  ///< per-core CM1 block edge (nx = ny = nz)
  int cores_per_node = 4;   ///< 3 clients + 1 dedicated core
};

struct CompressionBenchRow {
  std::string codec;
  std::uint64_t raw_bytes = 0;      ///< payload entering the emit stage
  std::uint64_t bytes_to_disk = 0;  ///< posix file bytes actually written
  double achieved_ratio = 0.0;      ///< ServerStats raw/stored (1.0 = raw)
  double compress_seconds = 0.0;    ///< dedicated-core time inside codecs
  /// Share of total server-worker time spent compressing — the §IV.D
  /// claim is that this fits inside the 92–99 % idle budget.
  double spare_time_utilization = 0.0;
  double effective_mb_per_sec = 0.0;  ///< raw payload MB per wall second
  double wall_seconds = 0.0;
};

/// One full CM1 run through the real pipeline — Runtime, store plugin,
/// EmitStage, write-behind, PosixBackend into a scratch directory — with
/// the given storage codec.  The smooth advection–diffusion fields are the
/// compressible shape the paper measured at 600%.
CompressionBenchRow run_compression(const CompressionBenchConfig& cfg,
                                    const std::string& codec) {
  namespace fs = std::filesystem;
  namespace core = dedicore::core;
  namespace sim = dedicore::sim;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_compress_" + std::to_string(::getpid()) + "_" +
       (codec == "xor+lzs" ? "xorlzs" : codec));

  sim::Cm1WorkloadOptions options;
  options.nx = options.ny = options.nz = cfg.grid;
  options.cores_per_node = cfg.cores_per_node;
  options.codec = codec;
  core::Configuration config = sim::make_cm1_configuration(options);
  // Retarget storage at the real disk: this section measures measured
  // bytes-to-disk, not modelled time.
  core::StorageSpec storage_spec = config.storage();
  storage_spec.backend = "posix";
  storage_spec.path = scratch.string();
  config.set_storage(storage_spec);
  config.validate();

  // Unused sink: the posix backend never touches the simulator.
  dedicore::fsim::StorageConfig sim_storage;
  sim_storage.jitter_sigma = 0.0;
  sim_storage.spike_probability = 0.0;
  sim_storage.interference_on_rate = 0.0;
  dedicore::fsim::FileSystem unused_fs(sim_storage,
                                       dedicore::fsim::TimeScale{1e-4, 0.01});

  CompressionBenchRow row;
  row.codec = codec;
  const auto start = Clock::now();
  dedicore::minimpi::run_world(cfg.cores_per_node, [&](auto& world) {
    core::Runtime rt = core::Runtime::initialize(config, world, unused_fs);
    if (rt.is_server()) {
      rt.run_server();
      const core::ServerStats& stats = rt.server_stats();
      row.raw_bytes = stats.emit_raw_bytes;
      row.achieved_ratio = stats.achieved_ratio();
      row.compress_seconds = stats.compress_seconds;
      const double worker_time = stats.idle_seconds + stats.busy_seconds;
      row.spare_time_utilization =
          worker_time > 0.0 ? stats.compress_seconds / worker_time : 0.0;
      return;
    }
    sim::Cm1Proxy proxy(sim::make_cm1_proxy_config(
        options, rt.client_comm().rank(), rt.client_comm().size()));
    for (int it = 0; it < cfg.iterations; ++it) {
      proxy.step();
      for (const auto& [name, bytes] : proxy.field_bytes()) {
        const auto status = rt.client().write(name, bytes);
        if (!status.is_ok()) {
          std::fprintf(stderr, "FAIL: compression bench write: %s\n",
                       status.to_string().c_str());
          std::exit(1);
        }
      }
      if (const auto status = rt.client().end_iteration(); !status.is_ok()) {
        std::fprintf(stderr, "FAIL: compression bench end_iteration: %s\n",
                     status.to_string().c_str());
        std::exit(1);
      }
    }
    rt.finalize();
  });
  row.wall_seconds = seconds_since(start);

  dedicore::storage::PosixBackend disk(scratch);
  for (const std::string& file : disk.list_files())
    row.bytes_to_disk += disk.file_size(file);
  row.effective_mb_per_sec =
      static_cast<double>(row.raw_bytes) / 1e6 / row.wall_seconds;

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return row;
}

// ---------------------------------------------------------------------------
// 7. Skewed clients + work stealing
// ---------------------------------------------------------------------------

struct SkewConfig {
  int clients = 8;
  int workers = 4;
  int hot_blocks = 30000;  ///< client 0 — ~78 % of all events
  int cold_blocks = 1200;  ///< each of the other seven clients
  std::uint64_t block_bytes = 2048;
  std::uint64_t capacity = 1ull << 26;
  std::size_t queue_capacity = 4096;
  double service_seconds_per_event = 10e-6;
  int steal_threshold = 2;
};

struct SkewSummary {
  std::string mode;  ///< "wall_clock" or "modeled", shared with section 4
  double pinned_events_per_sec = 0.0;
  double steal_events_per_sec = 0.0;
  double speedup = 0.0;
  std::uint64_t steals = 0;          ///< observed in the steal-on run
  std::uint64_t posix_jobs = 0;      ///< write-behind jobs in the twin run
  std::uint64_t posix_idle_drains = 0;  ///< drained by *parked* workers
};

/// The skewed twin of run_worker_scaling: client 0 produces the bulk of
/// the events, and the pool runs either with static pinning (client c ->
/// worker c mod N, the pre-PR design) or with ownership-token work
/// stealing.  Under pinning the hot client's events serialize on one
/// worker no matter how wide the pool is; stealing migrates its backlog
/// to whoever is idle.  Exactly-once is asserted per (client, block) —
/// the speedup claim is worthless without it.
double run_skewed_clients(const SkewConfig& cfg, bool steal, bool wall_clock,
                          std::uint64_t* steals_out) {
  namespace transport = dedicore::transport;
  auto fabric = std::make_shared<transport::ShmFabric>(
      cfg.capacity, /*queue_count=*/1, cfg.queue_capacity);
  transport::ShmServerTransport server(fabric, 0);
  transport::WorkerPoolOptions options;
  options.steal = steal;
  options.steal_threshold = cfg.steal_threshold;
  server.set_worker_count(cfg.workers, options);

  const auto blocks_of = [&cfg](int c) {
    return c == 0 ? cfg.hot_blocks : cfg.cold_blocks;
  };
  const auto flat = [&cfg](int c, std::uint32_t b) {
    const long base =
        c == 0 ? 0
               : cfg.hot_blocks + static_cast<long>(c - 1) * cfg.cold_blocks;
    return static_cast<std::size_t>(base + b);
  };
  const long total_blocks =
      cfg.hot_blocks + static_cast<long>(cfg.clients - 1) * cfg.cold_blocks;
  const long total = total_blocks + cfg.clients;
  std::vector<std::atomic<int>> delivered(
      static_cast<std::size_t>(total_blocks));
  std::vector<std::atomic<int>> stop_delivered(
      static_cast<std::size_t>(cfg.clients));
  std::vector<double> worker_busy(static_cast<std::size_t>(cfg.workers), 0.0);
  std::atomic<int> stops{0};

  if (!wall_clock) dedicore::set_virtual_time_enabled(true);
  const auto wall_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.clients + cfg.workers));
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0);
      const int blocks = blocks_of(c);
      for (int i = 0; i < blocks; ++i) {
        auto ref = client.acquire_blocking(cfg.block_bytes);
        if (!ref) return;
        Event event;
        event.type = EventType::kBlockWritten;
        event.source = c;
        event.block_id = static_cast<std::uint32_t>(i);
        event.block = *ref;
        client.publish(event);
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = c;
      client.post(stop);
    });
  }
  for (int w = 0; w < cfg.workers; ++w) {
    threads.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->type == EventType::kBlockWritten) {
          delivered[flat(event->source, event->block_id)].fetch_add(
              1, std::memory_order_relaxed);
          // Same service model as run_worker_scaling: real spin in wall
          // mode, virtual advance + yield (the peers' service window) in
          // modeled mode.
          if (wall_clock) {
            dedicore::spin_seconds(cfg.service_seconds_per_event);
          } else {
            dedicore::sleep_seconds(cfg.service_seconds_per_event);
            std::this_thread::yield();
          }
          server.release(event->block);
        } else if (event->type == EventType::kClientStop) {
          stop_delivered[static_cast<std::size_t>(event->source)].fetch_add(
              1, std::memory_order_relaxed);
          if (stops.fetch_add(1) + 1 == cfg.clients) server.end_of_stream();
        }
      }
      worker_busy[static_cast<std::size_t>(w)] = dedicore::now_seconds();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_elapsed = seconds_since(wall_start);
  if (!wall_clock) dedicore::set_virtual_time_enabled(false);

  long exactly_once = 0;
  for (const auto& count : delivered)
    if (count.load(std::memory_order_relaxed) == 1) ++exactly_once;
  for (const auto& count : stop_delivered)
    if (count.load(std::memory_order_relaxed) == 1) ++exactly_once;
  if (exactly_once != total) {
    std::fprintf(stderr,
                 "FAIL: skewed pool delivered %ld of %ld events exactly once "
                 "(steal=%d)\n",
                 exactly_once, total, steal ? 1 : 0);
    std::exit(1);
  }
  *steals_out = server.stats().steals;
  const double makespan =
      wall_clock ? wall_elapsed
                 : *std::max_element(worker_busy.begin(), worker_busy.end());
  return static_cast<double>(total) / makespan;
}

struct SkewPosixConfig {
  int jobs = 24;                           ///< write-behind images
  std::uint64_t image_bytes = 256 * 1024;
  std::uint64_t budget_bytes = 8ull << 20;
};

struct SkewPosixResult {
  std::uint64_t idle_drains = 0;
  std::uint64_t jobs_written = 0;
};

/// The drain-while-idle twin: the same skewed stream with stealing on,
/// but with a real posix write-behind queue hooked into the pool's idle
/// path.  The jobs are enqueued before the pool starts, so a worker that
/// parks with nothing to consume or steal has disk work waiting — the
/// idle_drains counter proves parked workers (not the enqueuer, not a
/// final flush) performed writes.  Runs in real time: the writes are
/// measured disk I/O, as in section 5.
SkewPosixResult run_skew_posix_drain(const SkewConfig& cfg,
                                     const SkewPosixConfig& pcfg) {
  namespace fs = std::filesystem;
  namespace transport = dedicore::transport;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_skew_" + std::to_string(::getpid()));
  storage::PosixBackend backend(scratch);
  storage::WriteBehind queue(backend, pcfg.budget_bytes);

  auto fabric = std::make_shared<transport::ShmFabric>(
      cfg.capacity, /*queue_count=*/1, cfg.queue_capacity);
  transport::ShmServerTransport server(fabric, 0);
  transport::WorkerPoolOptions options;
  options.steal = true;
  options.steal_threshold = cfg.steal_threshold;
  server.set_worker_count(cfg.workers, options);
  server.set_idle_hook([&queue] { return queue.drain_some(1) > 0; });

  std::vector<std::byte> image(pcfg.image_bytes);
  Rng rng(0xBEEF);
  for (auto& b : image) b = static_cast<std::byte>(rng.next_below(256));
  // Fits inside the budget, so none of these enqueues blocks: the whole
  // backlog is waiting before the first worker parks.
  for (int i = 0; i < pcfg.jobs; ++i)
    queue.enqueue({"skew/it" + std::to_string(i) + ".h5l", 0, image});

  std::atomic<int> stops{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < cfg.workers; ++w) {
    threads.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->type == EventType::kBlockWritten) {
          server.release(event->block);
        } else if (event->type == EventType::kClientStop) {
          if (stops.fetch_add(1) + 1 == cfg.clients) server.end_of_stream();
        }
      }
    });
  }
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0);
      const int blocks = c == 0 ? cfg.hot_blocks : cfg.cold_blocks;
      for (int i = 0; i < blocks; ++i) {
        auto ref = client.acquire_blocking(cfg.block_bytes);
        if (!ref) return;
        Event event;
        event.type = EventType::kBlockWritten;
        event.source = c;
        event.block_id = static_cast<std::uint32_t>(i);
        event.block = *ref;
        client.publish(event);
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = c;
      client.post(stop);
    });
  }
  for (auto& t : threads) t.join();
  queue.drain_all();  // whatever the idle path did not get to

  const auto wb_stats = queue.stats();
  if (wb_stats.jobs_written != static_cast<std::uint64_t>(pcfg.jobs) ||
      wb_stats.jobs_failed != 0) {
    std::fprintf(stderr, "FAIL: skew posix twin wrote %llu/%d jobs\n",
                 static_cast<unsigned long long>(wb_stats.jobs_written),
                 pcfg.jobs);
    std::exit(1);
  }
  SkewPosixResult result;
  result.idle_drains = server.stats().idle_drains;
  result.jobs_written = wb_stats.jobs_written;
  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------------
// 8. Fault tolerance: time-to-reclaim and throughput retained when one of
//    the clients is killed mid-run
// ---------------------------------------------------------------------------

struct DeathBenchConfig {
  int clients = 8;
  int workers = 4;
  int blocks_per_client = 6000;
  int kill_after = 1500;  ///< victim events that land before the death
  int victim = 3;
  std::uint64_t block_bytes = 2048;
  std::uint64_t capacity = 1ull << 26;
  std::size_t queue_capacity = 4096;
  double service_seconds_per_event = 10e-6;
  int steal_threshold = 2;
};

struct DeathBenchResult {
  std::string mode;  ///< "wall_clock" or "modeled", as in sections 4/7
  double healthy_events_per_sec = 0.0;
  double faulty_events_per_sec = 0.0;
  double throughput_retained = 0.0;  ///< faulty rate / healthy rate
  double reclaim_ms = 0.0;  ///< death observed -> reclaim complete (wall)
  std::uint64_t blocks_reclaimed = 0;
};

/// One run of the uniform 8-client stream on a stealing 4-worker pool.
/// With `kill` set, a seeded fault plan kills the victim on the publish
/// after its kill_after-th event — mid-acquire, so the unpublished block
/// is left to the liveness ledger exactly as a SIGKILL would leave it.
/// The survivors run to completion; the pool must consume the abort,
/// reclaim the orphan, and terminate without the victim's stop.
/// Exactly-once is asserted for every event that was actually published.
double run_client_death(const DeathBenchConfig& cfg, bool kill,
                        bool wall_clock, DeathBenchResult* result) {
  namespace transport = dedicore::transport;
  auto fabric = std::make_shared<transport::ShmFabric>(
      cfg.capacity, /*queue_count=*/1, cfg.queue_capacity);
  transport::ShmServerTransport server(fabric, 0);
  transport::WorkerPoolOptions options;
  options.steal = true;
  options.steal_threshold = cfg.steal_threshold;
  server.set_worker_count(cfg.workers, options);

  std::shared_ptr<dedicore::fault::FaultInjector> faults;
  if (kill) {
    faults = std::make_shared<dedicore::fault::FaultInjector>(1);
    dedicore::fault::FaultSpec spec;
    spec.point = "client.die";
    spec.target = cfg.victim;
    spec.after = static_cast<std::uint64_t>(cfg.kill_after);
    faults->arm(spec);
  }

  const long total_blocks =
      static_cast<long>(cfg.clients) * cfg.blocks_per_client;
  std::vector<std::atomic<int>> delivered(
      static_cast<std::size_t>(total_blocks));
  std::vector<double> worker_busy(static_cast<std::size_t>(cfg.workers), 0.0);
  std::atomic<int> stops{0};
  std::atomic<bool> aborted{false};
  std::atomic<double> death_at{-1.0};    // wall seconds since start
  std::atomic<double> reclaimed_at{-1.0};
  const int expected_stops = kill ? cfg.clients - 1 : cfg.clients;

  if (!wall_clock) dedicore::set_virtual_time_enabled(true);
  const auto wall_start = Clock::now();
  const auto maybe_finish = [&] {
    if (stops.load(std::memory_order_acquire) == expected_stops &&
        (!kill || aborted.load(std::memory_order_acquire)))
      server.end_of_stream();
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.clients + cfg.workers));
  for (int c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0, c, faults);
      for (int i = 0; i < cfg.blocks_per_client; ++i) {
        auto ref = client.acquire_blocking(cfg.block_bytes);
        if (!ref) return;
        Event event;
        event.type = EventType::kBlockWritten;
        event.source = c;
        event.block_id = static_cast<std::uint32_t>(i);
        event.block = *ref;
        if (!client.publish(event)) {
          // The armed fault fired: the client is dead.  No abandon, no
          // stop — the acquired block stays in the liveness ledger for
          // the server's reclaim, as after a real SIGKILL.
          death_at.store(seconds_since(wall_start),
                         std::memory_order_release);
          return;
        }
      }
      Event stop;
      stop.type = EventType::kClientStop;
      stop.source = c;
      client.post(stop);
    });
  }
  for (int w = 0; w < cfg.workers; ++w) {
    threads.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->type == EventType::kBlockWritten) {
          delivered[static_cast<std::size_t>(event->source) *
                        static_cast<std::size_t>(cfg.blocks_per_client) +
                    event->block_id]
              .fetch_add(1, std::memory_order_relaxed);
          if (wall_clock) {
            dedicore::spin_seconds(cfg.service_seconds_per_event);
          } else {
            dedicore::sleep_seconds(cfg.service_seconds_per_event);
            std::this_thread::yield();
          }
          server.release(event->block);
        } else if (event->type == EventType::kClientStop) {
          stops.fetch_add(1, std::memory_order_acq_rel);
          maybe_finish();
        } else if (event->type == EventType::kClientAborted) {
          server.reclaim_client(event->source);
          reclaimed_at.store(seconds_since(wall_start),
                             std::memory_order_release);
          aborted.store(true, std::memory_order_release);
          maybe_finish();
        }
      }
      worker_busy[static_cast<std::size_t>(w)] = dedicore::now_seconds();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_elapsed = seconds_since(wall_start);
  if (!wall_clock) dedicore::set_virtual_time_enabled(false);

  // Exactly-once over everything that was actually published: all blocks
  // of the survivors, the victim's first kill_after, nothing after.
  long expected = 0, got = 0;
  for (int c = 0; c < cfg.clients; ++c) {
    const int published = (kill && c == cfg.victim) ? cfg.kill_after
                                                    : cfg.blocks_per_client;
    expected += published;
    for (int i = 0; i < cfg.blocks_per_client; ++i) {
      const int count =
          delivered[static_cast<std::size_t>(c) *
                        static_cast<std::size_t>(cfg.blocks_per_client) +
                    static_cast<std::size_t>(i)]
              .load(std::memory_order_relaxed);
      if (count == 1 && i < published) ++got;
      if (count != 0 && i >= published) got = -1;  // phantom delivery
    }
  }
  if (got != expected) {
    std::fprintf(stderr,
                 "FAIL: client-death run delivered %ld of %ld published "
                 "events exactly once (kill=%d)\n",
                 got, expected, kill ? 1 : 0);
    std::exit(1);
  }
  if (kill) {
    const auto stats = server.stats();
    if (stats.clients_aborted != 1 || stats.blocks_reclaimed < 1) {
      std::fprintf(stderr,
                   "FAIL: reclaim saw %llu aborts, %llu blocks\n",
                   static_cast<unsigned long long>(stats.clients_aborted),
                   static_cast<unsigned long long>(stats.blocks_reclaimed));
      std::exit(1);
    }
    if (fabric->segment.used() != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu segment bytes leaked past the reclaim\n",
                   static_cast<unsigned long long>(fabric->segment.used()));
      std::exit(1);
    }
    result->blocks_reclaimed = stats.blocks_reclaimed;
    result->reclaim_ms =
        (reclaimed_at.load() - death_at.load()) * 1e3;  // wall milliseconds
  }
  const long processed = expected + expected_stops + (kill ? 1 : 0);
  const double makespan =
      wall_clock ? wall_elapsed
                 : *std::max_element(worker_busy.begin(), worker_busy.end());
  return static_cast<double>(processed) / makespan;
}

// ---------------------------------------------------------------------------
// 9. Sharded multi-root storage (chunking + placement + integrity)
// ---------------------------------------------------------------------------

struct ShardedBenchConfig {
  int files = 32;
  std::uint64_t image_bytes = 1ull << 20;  ///< 1 MiB per image
  std::uint64_t chunk_bytes = 256 << 10;   ///< 4 chunks per image
  std::uint64_t budget_bytes = 8ull << 20;
  int drainers = 4;  ///< stand-in server workers (>= widest root sweep)
  /// Per-root bandwidth of the deterministic model (only ratios matter).
  double modeled_root_bw = 200e6;
};

struct ShardedBenchRow {
  int roots = 0;
  double mb_per_sec = 0.0;  ///< aggregate write MB/s, per scaling mode
  double speedup = 0.0;     ///< vs the 1-root row of the same mode
  /// total physical bytes / (roots * busiest root's bytes): 1.0 is a
  /// perfect spread.  roots * balance is the makespan speedup the layout
  /// supports, independent of the disk — the structural gate.
  double placement_balance = 0.0;
};

struct ShardedBenchResult {
  std::string mode;  ///< "wall_clock" or "modeled", as in sections 4/7/8
  std::vector<ShardedBenchRow> rows;
  bool twin_identical = false;
  bool corruption_detected = false;
  bool replication_recovered = false;
};

/// Emits `files` images through a ShardedBackend over `roots` posix roots
/// via a chunk-granular WriteBehind drained by `drainers` threads, then
/// verifies every image reads back and reports aggregate MB/s plus the
/// placement balance.  Wall mode times the drain; modeled mode is the
/// deterministic placement model (makespan = busiest root's bytes at a
/// fixed per-root bandwidth), so 1-core CI still produces a meaningful
/// scaling curve.
ShardedBenchRow run_sharded_roots(const ShardedBenchConfig& cfg, int roots,
                                  bool wall_clock) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_sharded_" + std::to_string(::getpid()) + "_" +
       std::to_string(roots));
  std::vector<fs::path> root_paths;
  for (int r = 0; r < roots; ++r)
    root_paths.push_back(scratch / ("root" + std::to_string(r)));

  storage::ShardedOptions opts;
  opts.chunk_size = cfg.chunk_bytes;
  opts.placement = storage::PlacementPolicy::kBalanced;
  storage::ShardedBackend backend(root_paths, opts);
  storage::WriteBehind queue(backend, cfg.budget_bytes);

  std::vector<std::byte> image(cfg.image_bytes);
  Rng rng(0xD15C);
  for (auto& b : image) b = static_cast<std::byte>(rng.next_below(256));
  const double total_mb = static_cast<double>(cfg.files) *
                          static_cast<double>(cfg.image_bytes) / 1e6;

  const auto start = Clock::now();
  std::vector<std::thread> drainers;
  std::atomic<bool> done{false};
  for (int d = 0; d < cfg.drainers; ++d) {
    drainers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire))
        if (queue.drain_some(4) == 0) std::this_thread::yield();
    });
  }
  for (int i = 0; i < cfg.files; ++i)
    queue.enqueue({"node0/it" + std::to_string(i) + ".h5l", 0, image});
  queue.drain_all();
  done.store(true, std::memory_order_release);
  for (auto& d : drainers) d.join();
  const double elapsed = seconds_since(start);

  const auto wb = queue.stats();
  if (wb.jobs_failed != 0 ||
      backend.file_count() != static_cast<std::size_t>(cfg.files)) {
    std::fprintf(stderr,
                 "FAIL: sharded(%d roots) published %zu/%d images, %llu "
                 "failed jobs\n",
                 roots, backend.file_count(), cfg.files,
                 static_cast<unsigned long long>(wb.jobs_failed));
    std::exit(1);
  }

  ShardedBenchRow row;
  row.roots = roots;
  std::uint64_t physical = 0, busiest = 0;
  for (const auto& rs : backend.root_stats()) {
    physical += rs.bytes_written;
    busiest = std::max(busiest, rs.bytes_written);
  }
  row.placement_balance =
      static_cast<double>(physical) /
      (static_cast<double>(roots) * static_cast<double>(busiest));
  row.mb_per_sec =
      wall_clock ? total_mb / elapsed
                 : total_mb / (static_cast<double>(busiest) /
                               cfg.modeled_root_bw);

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return row;
}

/// Structural integrity gates, independent of scale and scaling mode: the
/// sharded twin reads back byte-identical to a single-root posix run of
/// the same images, a flipped bit in a chunk surfaces as DATA_LOSS, and
/// replication=2 serves the exact original bytes past the corrupt copy.
ShardedBenchResult run_sharded_integrity(const ShardedBenchConfig& cfg,
                                         ShardedBenchResult result) {
  namespace fs = std::filesystem;
  namespace storage = dedicore::storage;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("dedicore_bench_sharded_twin_" + std::to_string(::getpid()));
  const int files = std::min(cfg.files, 4);

  std::vector<std::byte> image(cfg.image_bytes);
  Rng rng(0xBEEF);
  for (auto& b : image) b = static_cast<std::byte>(rng.next_below(256));

  {
    // Twin: one single-root posix backend, one 4-root sharded stack.
    storage::PosixBackend single(scratch / "single");
    std::vector<fs::path> roots;
    for (int r = 0; r < 4; ++r)
      roots.push_back(scratch / "sharded" / ("root" + std::to_string(r)));
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    storage::ShardedBackend sharded(roots, opts);
    result.twin_identical = true;
    for (int i = 0; i < files; ++i) {
      const std::string path = "it" + std::to_string(i) + ".h5l";
      image[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
      if (!storage::write_image(single, path, image).is_ok() ||
          !storage::write_image(sharded, path, image).is_ok()) {
        std::fprintf(stderr, "FAIL: sharded twin write\n");
        std::exit(1);
      }
      const auto a = single.read_file(path);
      const auto b = sharded.read_file(path);
      result.twin_identical =
          result.twin_identical && a.has_value() && b.has_value() && *a == *b;
    }
  }
  {
    // Corruption without replication: DATA_LOSS, never silent garbage.
    std::vector<fs::path> roots = {scratch / "c" / "r0", scratch / "c" / "r1"};
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    storage::ShardedBackend backend(roots, opts);
    if (!storage::write_image(backend, "img.h5l", image).is_ok()) {
      std::fprintf(stderr, "FAIL: sharded corruption-probe write\n");
      std::exit(1);
    }
    for (const auto& root : roots) {
      const fs::path chunk = root / "img.h5l.chunk-0";
      if (!fs::exists(chunk)) continue;
      std::fstream io(chunk, std::ios::in | std::ios::out | std::ios::binary);
      char c = 0;
      io.read(&c, 1);
      c = static_cast<char>(c ^ 0x01);
      io.seekp(0);
      io.write(&c, 1);
    }
    std::vector<std::byte> back;
    result.corruption_detected =
        backend.read_image("img.h5l", &back).code() ==
        dedicore::StatusCode::kDataLoss;
  }
  {
    // Same corruption with replication=2: recovered, byte-identical.
    std::vector<fs::path> roots = {scratch / "r" / "r0", scratch / "r" / "r1"};
    storage::ShardedOptions opts;
    opts.chunk_size = cfg.chunk_bytes;
    opts.replication = 2;
    storage::ShardedBackend backend(roots, opts);
    if (!storage::write_image(backend, "img.h5l", image).is_ok()) {
      std::fprintf(stderr, "FAIL: sharded replication-probe write\n");
      std::exit(1);
    }
    const auto flip = [&](const fs::path& root) {
      std::fstream io(root / "img.h5l.chunk-0",
                      std::ios::in | std::ios::out | std::ios::binary);
      char c = 0;
      io.read(&c, 1);
      c = static_cast<char>(c ^ 0x01);
      io.seekp(0);
      io.write(&c, 1);
    };
    // Corrupt one copy; if the read path served chunk 0 from the *other*
    // replica first (placement-dependent), restore it and corrupt that
    // one instead, so the recovery actually exercises the fall-through.
    std::vector<std::byte> back;
    bool degraded = false;
    flip(roots[0]);
    dedicore::Status read = backend.read_image("img.h5l", &back, &degraded);
    if (read.is_ok() && !degraded) {
      flip(roots[0]);  // restore
      flip(roots[1]);
      degraded = false;
      read = backend.read_image("img.h5l", &back, &degraded);
    }
    result.replication_recovered =
        read.is_ok() && back == image && degraded &&
        backend.counters().corrupt_chunks_detected > 0;
  }

  std::error_code ec;
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return result;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct AllocatorRow {
  int threads;
  double ops_per_sec;
};

struct QueueRow {
  int producers;
  double events_per_sec;
  double batch_events_per_sec;
};

struct WorkerRow {
  int workers;
  double events_per_sec;
  double speedup;  ///< vs the first (narrowest) entry of the sweep
};

std::string format_json(const std::string& mode,
                        const std::vector<AllocatorRow>& allocator,
                        const std::vector<QueueRow>& queue,
                        const std::vector<WorkerRow>& worker_rows,
                        const std::string& scaling_mode,
                        const SkewConfig& skew_cfg, const SkewSummary& skew,
                        const MpiBatchConfig& mpi_cfg,
                        const MpiBatchResult& mpi,
                        const PosixBenchConfig& posix_cfg,
                        const PosixBenchResult& posix,
                        const ShardedBenchConfig& sharded_cfg,
                        const ShardedBenchResult& sharded,
                        const CompressionBenchConfig& compress_cfg,
                        const std::vector<CompressionBenchRow>& compression,
                        const DeathBenchConfig& death_cfg,
                        const DeathBenchResult& death) {
  std::ostringstream out;
  out.precision(1);
  out << std::fixed;
  out << "{\n  \"bench\": \"hotpath\",\n  \"mode\": \"" << mode << "\",\n";
  out << "  \"allocator_churn\": [\n";
  for (std::size_t i = 0; i < allocator.size(); ++i) {
    const auto& row = allocator[i];
    out << "    {\"threads\": " << row.threads
        << ", \"ops_per_sec\": " << row.ops_per_sec << "}"
        << (i + 1 < allocator.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"queue_throughput\": [\n";
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto& row = queue[i];
    out << "    {\"producers\": " << row.producers
        << ", \"events_per_sec\": " << row.events_per_sec
        << ", \"batch_events_per_sec\": " << row.batch_events_per_sec
        << "}" << (i + 1 < queue.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"server_worker_scaling_mode\": \"" << scaling_mode
      << "\",\n  \"server_worker_scaling\": [\n";
  for (std::size_t i = 0; i < worker_rows.size(); ++i) {
    const auto& row = worker_rows[i];
    out << "    {\"workers\": " << row.workers
        << ", \"events_per_sec\": " << row.events_per_sec << ", \"speedup\": ";
    out.precision(2);
    out << row.speedup;
    out.precision(1);
    out << "}" << (i + 1 < worker_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"skewed_clients\": {\n";
  out << "    \"clients\": " << skew_cfg.clients
      << ", \"workers\": " << skew_cfg.workers
      << ", \"hot_blocks\": " << skew_cfg.hot_blocks
      << ", \"cold_blocks\": " << skew_cfg.cold_blocks << ",\n";
  out << "    \"mode\": \"" << skew.mode << "\",\n";
  out << "    \"pinned_events_per_sec\": " << skew.pinned_events_per_sec
      << ",\n    \"steal_events_per_sec\": " << skew.steal_events_per_sec
      << ",\n    \"speedup\": ";
  out.precision(2);
  out << skew.speedup;
  out.precision(1);
  out << ", \"steals\": " << skew.steals
      << ",\n    \"posix_idle_drain_jobs\": " << skew.posix_jobs
      << ", \"posix_idle_drains\": " << skew.posix_idle_drains << "\n  },\n";
  out << "  \"mpi_batching\": {\n";
  out << "    \"clients\": " << mpi_cfg.clients
      << ", \"iterations\": " << mpi_cfg.iterations
      << ", \"blocks_per_iteration\": " << mpi_cfg.blocks_per_iteration
      << ",\n";
  out.precision(3);
  out << "    \"wire_messages_per_client_iteration\": "
      << mpi.wire_per_client_iteration
      << ",\n    \"unbatched_wire_messages_per_client_iteration\": "
      << mpi.unbatched_per_client_iteration
      << ",\n    \"events_per_wire_message\": " << mpi.events_per_wire_message
      << "\n  },\n";
  out << "  \"posix_backend\": {\n";
  out << "    \"files\": " << posix_cfg.files
      << ", \"image_bytes\": " << posix_cfg.image_bytes
      << ", \"drainers\": " << posix_cfg.drainers << ",\n";
  out.precision(1);
  out << "    \"sync_mb_per_sec\": " << posix.sync_mb_per_sec
      << ",\n    \"write_behind_mb_per_sec\": "
      << posix.write_behind_mb_per_sec;
  out.precision(4);
  out << ",\n    \"enqueue_block_seconds\": " << posix.enqueue_block_seconds
      << "\n  },\n";
  out << "  \"sharded_backend\": {\n";
  out << "    \"files\": " << sharded_cfg.files
      << ", \"image_bytes\": " << sharded_cfg.image_bytes
      << ", \"chunk_bytes\": " << sharded_cfg.chunk_bytes
      << ", \"drainers\": " << sharded_cfg.drainers << ",\n";
  out << "    \"mode\": \"" << sharded.mode << "\",\n    \"roots\": [\n";
  for (std::size_t i = 0; i < sharded.rows.size(); ++i) {
    const auto& row = sharded.rows[i];
    out.precision(1);
    out << "      {\"roots\": " << row.roots
        << ", \"mb_per_sec\": " << row.mb_per_sec << ", \"speedup\": ";
    out.precision(2);
    out << row.speedup << ", \"placement_balance\": " << row.placement_balance
        << "}" << (i + 1 < sharded.rows.size() ? "," : "") << "\n";
  }
  out.precision(1);
  out << "    ],\n";
  out << "    \"twin_identical\": "
      << (sharded.twin_identical ? "true" : "false")
      << ", \"corruption_detected\": "
      << (sharded.corruption_detected ? "true" : "false")
      << ", \"replication_recovered\": "
      << (sharded.replication_recovered ? "true" : "false") << "\n  },\n";
  out << "  \"compression\": {\n";
  out << "    \"iterations\": " << compress_cfg.iterations
      << ", \"grid\": " << compress_cfg.grid
      << ", \"cores_per_node\": " << compress_cfg.cores_per_node
      << ",\n    \"runs\": [\n";
  for (std::size_t i = 0; i < compression.size(); ++i) {
    const auto& row = compression[i];
    out << "      {\"codec\": \"" << row.codec << "\", \"raw_bytes\": "
        << row.raw_bytes << ", \"bytes_to_disk\": " << row.bytes_to_disk;
    out.precision(2);
    out << ", \"achieved_ratio\": " << row.achieved_ratio;
    out.precision(4);
    out << ",\n       \"compress_seconds\": " << row.compress_seconds
        << ", \"spare_time_utilization\": " << row.spare_time_utilization;
    out.precision(1);
    out << ", \"effective_mb_per_sec\": " << row.effective_mb_per_sec << "}"
        << (i + 1 < compression.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";
  out << "  \"client_death\": {\n";
  out << "    \"clients\": " << death_cfg.clients
      << ", \"workers\": " << death_cfg.workers
      << ", \"blocks_per_client\": " << death_cfg.blocks_per_client
      << ", \"kill_after\": " << death_cfg.kill_after << ",\n";
  out << "    \"mode\": \"" << death.mode << "\",\n";
  out << "    \"healthy_events_per_sec\": " << death.healthy_events_per_sec
      << ",\n    \"faulty_events_per_sec\": " << death.faulty_events_per_sec
      << ",\n    \"throughput_retained\": ";
  out.precision(3);
  out << death.throughput_retained << ",\n    \"reclaim_ms\": "
      << death.reclaim_ms;
  out.precision(1);
  out << ", \"blocks_reclaimed\": " << death.blocks_reclaimed << "\n  }\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::vector<int> worker_sweep = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      // Comma-separated sweep, e.g. --workers 1,2,4,8.
      worker_sweep.clear();
      std::string list = argv[++i];
      std::stringstream items(list);
      std::string item;
      while (std::getline(items, item, ',')) {
        const int workers = std::atoi(item.c_str());
        if (workers < 1) {
          std::cerr << "bench_hotpath: bad --workers entry '" << item << "'\n";
          return 2;
        }
        worker_sweep.push_back(workers);
      }
      if (worker_sweep.empty()) {
        std::cerr << "bench_hotpath: empty --workers sweep\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_hotpath [--smoke] [--json FILE] "
                   "[--workers N,N,...]\n";
      return 2;
    }
  }

  ChurnConfig churn;
  QueueConfig queue_cfg;
  MpiBatchConfig mpi_cfg;
  WorkerScaleConfig worker_cfg;
  SkewConfig skew_cfg;
  SkewPosixConfig skew_posix_cfg;
  PosixBenchConfig posix_cfg;
  ShardedBenchConfig sharded_cfg;
  CompressionBenchConfig compress_cfg;
  DeathBenchConfig death_cfg;
  if (smoke) {
    churn.capacity = 1ull << 24;
    churn.fragment_pins = 512;
    churn.ops_per_thread = 5000;
    queue_cfg.events_per_producer = 20000;
    mpi_cfg.iterations = 8;
    worker_cfg.events_per_client = 4000;
    skew_cfg.hot_blocks = 4000;
    skew_cfg.cold_blocks = 160;
    skew_posix_cfg.jobs = 6;
    skew_posix_cfg.image_bytes = 64 * 1024;
    posix_cfg.files = 8;
    posix_cfg.image_bytes = 256 * 1024;
    posix_cfg.budget_bytes = 1ull << 20;
    sharded_cfg.files = 6;
    sharded_cfg.image_bytes = 256 * 1024;
    sharded_cfg.chunk_bytes = 64 * 1024;
    sharded_cfg.budget_bytes = 1ull << 20;
    compress_cfg.iterations = 4;
    compress_cfg.grid = 16;
    death_cfg.blocks_per_client = 600;
    death_cfg.kill_after = 150;
  }

  // Wall-clock pool measurements need real parallel hardware; narrower
  // hosts (this includes 1-core CI containers) fall back to the
  // deterministic virtual-clock model.  Recorded in the JSON so trajectory
  // points are only ever compared within a mode.
  const bool wall = wall_clock_capable();
  const std::string scaling_mode = wall ? "wall_clock" : "modeled";

  std::vector<AllocatorRow> allocator_rows;
  for (int threads : {1, 4}) {
    AllocatorRow row;
    row.threads = threads;
    row.ops_per_sec = run_allocator_churn(churn, threads);
    allocator_rows.push_back(row);
    std::printf("allocator churn, %d thread(s): %.2fM ops/s\n", threads,
                row.ops_per_sec / 1e6);
  }

  std::vector<QueueRow> queue_rows;
  for (int producers : {1, 2, 4}) {
    QueueRow row;
    row.producers = producers;
    row.events_per_sec = run_queue_popall(queue_cfg, producers);
    row.batch_events_per_sec = run_queue_batched(queue_cfg, producers);
    queue_rows.push_back(row);
    std::printf(
        "queue throughput, %d producer(s): push+pop_all %.2fM ev/s, "
        "push_all+pop_all %.2fM ev/s\n",
        producers, row.events_per_sec / 1e6, row.batch_events_per_sec / 1e6);
  }

  std::vector<WorkerRow> worker_rows;
  for (int workers : worker_sweep) {
    WorkerRow row;
    row.workers = workers;
    row.events_per_sec = run_worker_scaling(worker_cfg, workers, wall);
    row.speedup = worker_rows.empty()
                      ? 1.0
                      : row.events_per_sec / worker_rows.front().events_per_sec;
    worker_rows.push_back(row);
    std::printf(
        "server worker scaling (%s), %d worker(s): %.2fM ev/s (%.2fx vs %d)\n",
        scaling_mode.c_str(), workers, row.events_per_sec / 1e6, row.speedup,
        worker_rows.front().workers);
  }

  SkewSummary skew;
  skew.mode = scaling_mode;
  std::uint64_t pinned_steals = 0;
  skew.pinned_events_per_sec =
      run_skewed_clients(skew_cfg, /*steal=*/false, wall, &pinned_steals);
  skew.steal_events_per_sec =
      run_skewed_clients(skew_cfg, /*steal=*/true, wall, &skew.steals);
  skew.speedup = skew.steal_events_per_sec / skew.pinned_events_per_sec;
  std::printf(
      "skewed clients (%s), %d clients (hot %d / cold %d) on %d workers: "
      "pinned %.2fM ev/s, stealing %.2fM ev/s (%.2fx), %llu steals\n",
      scaling_mode.c_str(), skew_cfg.clients, skew_cfg.hot_blocks,
      skew_cfg.cold_blocks, skew_cfg.workers,
      skew.pinned_events_per_sec / 1e6, skew.steal_events_per_sec / 1e6,
      skew.speedup, static_cast<unsigned long long>(skew.steals));
  // Structural gates, any scale: the pinned run must not migrate clients,
  // and the stealing run must actually have stolen — a zero here means the
  // speedup compares two identically-assigned pools.
  if (pinned_steals != 0) {
    std::fprintf(stderr, "FAIL: pinned run reported %llu steals\n",
                 static_cast<unsigned long long>(pinned_steals));
    return 1;
  }
  if (skew.steals == 0) {
    std::fprintf(stderr, "FAIL: stealing run observed no steals\n");
    return 1;
  }

  const SkewPosixResult skew_posix =
      run_skew_posix_drain(skew_cfg, skew_posix_cfg);
  skew.posix_jobs = skew_posix.jobs_written;
  skew.posix_idle_drains = skew_posix.idle_drains;
  std::printf(
      "skewed clients posix twin: %llu write-behind jobs, %llu drained by "
      "parked workers\n",
      static_cast<unsigned long long>(skew_posix.jobs_written),
      static_cast<unsigned long long>(skew_posix.idle_drains));
  if (skew_posix.idle_drains == 0) {
    std::fprintf(stderr,
                 "FAIL: no write-behind job was drained from the idle path\n");
    return 1;
  }

  const MpiBatchResult mpi = run_mpi_batching(mpi_cfg);
  std::printf(
      "mpi batching: %.3f wire msgs per (client, iteration) for %d blocks "
      "(unbatched design: %.3f), %.1f events per wire message\n",
      mpi.wire_per_client_iteration, mpi_cfg.blocks_per_iteration,
      mpi.unbatched_per_client_iteration, mpi.events_per_wire_message);

  const PosixBenchResult posix = run_posix_backend(posix_cfg);
  std::printf(
      "posix backend: sync %.1f MB/s, write-behind (%d drainers) %.1f MB/s, "
      "producer blocked %.3fs on the %.0f MiB budget\n",
      posix.sync_mb_per_sec, posix_cfg.drainers,
      posix.write_behind_mb_per_sec, posix.enqueue_block_seconds,
      static_cast<double>(posix_cfg.budget_bytes) / (1 << 20));

  ShardedBenchResult sharded;
  sharded.mode = scaling_mode;
  for (int roots : {1, 2, 4}) {
    ShardedBenchRow row = run_sharded_roots(sharded_cfg, roots, wall);
    row.speedup = sharded.rows.empty()
                      ? 1.0
                      : row.mb_per_sec / sharded.rows.front().mb_per_sec;
    sharded.rows.push_back(row);
    std::printf(
        "sharded backend (%s), %d root(s): %.1f MB/s aggregate (%.2fx vs 1 "
        "root), placement balance %.2f\n",
        scaling_mode.c_str(), roots, row.mb_per_sec, row.speedup,
        row.placement_balance);
  }
  sharded = run_sharded_integrity(sharded_cfg, std::move(sharded));
  std::printf(
      "sharded integrity: twin %s, corruption %s, replication-2 recovery "
      "%s\n",
      sharded.twin_identical ? "byte-identical" : "MISMATCH",
      sharded.corruption_detected ? "detected" : "MISSED",
      sharded.replication_recovered ? "byte-identical" : "FAILED");
  // Structural gates, any scale and either mode.  The scaling gate uses
  // roots x balance — the makespan speedup the *layout* supports — so a
  // full run on a many-core single-disk host cannot fail it on hardware
  // it does not have; in modeled mode mb_per_sec/speedup are exactly this
  // product, so the committed 4-root number clears 1.5x whenever the gate
  // does.
  {
    const ShardedBenchRow& widest = sharded.rows.back();
    const double layout_speedup =
        static_cast<double>(widest.roots) * widest.placement_balance;
    if (layout_speedup < 1.5) {
      std::fprintf(stderr,
                   "FAIL: 4-root placement supports only %.2fx over one root "
                   "(balance %.2f)\n",
                   layout_speedup, widest.placement_balance);
      return 1;
    }
  }
  if (!sharded.twin_identical || !sharded.corruption_detected ||
      !sharded.replication_recovered) {
    std::fprintf(stderr, "FAIL: sharded integrity gates\n");
    return 1;
  }

  std::vector<CompressionBenchRow> compression;
  for (const std::string codec : {"none", "xor+lzs"}) {
    compression.push_back(run_compression(compress_cfg, codec));
    const auto& row = compression.back();
    std::printf(
        "compression (%s): %.1f MB raw -> %.1f MB on disk (%.2fx), codec "
        "time %.3fs (%.1f%% of worker time), %.1f raw MB/s retired\n",
        row.codec.c_str(), static_cast<double>(row.raw_bytes) / 1e6,
        static_cast<double>(row.bytes_to_disk) / 1e6, row.achieved_ratio,
        row.compress_seconds, row.spare_time_utilization * 100.0,
        row.effective_mb_per_sec);
  }

  DeathBenchResult death;
  death.mode = scaling_mode;
  death.healthy_events_per_sec =
      run_client_death(death_cfg, /*kill=*/false, wall, &death);
  death.faulty_events_per_sec =
      run_client_death(death_cfg, /*kill=*/true, wall, &death);
  death.throughput_retained =
      death.faulty_events_per_sec / death.healthy_events_per_sec;
  std::printf(
      "client death (%s), %d clients on %d workers, victim killed after %d "
      "of %d events: healthy %.2fM ev/s, faulty %.2fM ev/s (%.3f retained), "
      "reclaim in %.2fms, %llu block(s) reclaimed\n",
      scaling_mode.c_str(), death_cfg.clients, death_cfg.workers,
      death_cfg.kill_after, death_cfg.blocks_per_client,
      death.healthy_events_per_sec / 1e6, death.faulty_events_per_sec / 1e6,
      death.throughput_retained, death.reclaim_ms,
      static_cast<unsigned long long>(death.blocks_reclaimed));
  // Structural gates, any scale (run_client_death already asserted
  // exactly-once, the abort, the orphan reclaim, and a leak-free
  // segment): a faulty run that keeps less than half the healthy
  // throughput means the reclaim path is stalling the survivors.
  if (!smoke && death.throughput_retained < 0.5) {
    std::fprintf(stderr,
                 "FAIL: only %.3f of healthy throughput retained with a dead "
                 "client\n",
                 death.throughput_retained);
    return 1;
  }

  const std::string json =
      format_json(smoke ? "smoke" : "full", allocator_rows, queue_rows,
                  worker_rows, scaling_mode, skew_cfg, skew, mpi_cfg, mpi,
                  posix_cfg, posix, sharded_cfg, sharded, compress_cfg,
                  compression, death_cfg, death);
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << json;
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "bench_hotpath: cannot write " << json_path << "\n";
        return 1;
      }
      out << json;
      std::printf("wrote %s\n", json_path.c_str());
    }
  }

  // Smoke mode doubles as a regression gate in CTest: the structural win
  // (frame batching) must hold at any scale.  Throughput ratios are only
  // checked in full runs — tiny smoke workloads are noise-dominated.
  if (!smoke &&
      mpi.wire_per_client_iteration > 2.0) {
    std::cerr << "FAIL: wire messages per iteration did not collapse to O(1)\n";
    return 1;
  }
  if (mpi.wire_per_client_iteration >=
      mpi.unbatched_per_client_iteration) {
    std::cerr << "FAIL: batching sent no fewer messages than the unbatched "
                 "design\n";
    return 1;
  }
  // Work-stealing gate (full runs only — smoke workloads are too small for
  // throughput ratios): under the skewed mix, stealing must beat pinning
  // by at least 1.5x at 4 workers.  In modeled mode the ratio is
  // deterministic (~3x: the hot client's ~81 % service share spreads over
  // the pool); in wall mode it is a real measurement on >= 4 cores.
  if (!smoke && skew.speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: stealing speedup %.2fx under skew is below 1.5x\n",
                 skew.speedup);
    return 1;
  }
  // PR-6 structural gate (any scale): the xor+lzs twin must put fewer
  // bytes on the real disk than the raw twin of the same workload.
  if (compression[1].bytes_to_disk >= compression[0].bytes_to_disk ||
      compression[1].achieved_ratio <= 1.0) {
    std::cerr << "FAIL: compression did not shrink bytes-to-disk ("
              << compression[0].bytes_to_disk << " raw vs "
              << compression[1].bytes_to_disk << " compressed)\n";
    return 1;
  }
  return 0;
}
