// Runtime lock-order (deadlock) detection: the lockdep layer inside
// dedicore::Mutex (common/sync.hpp).
//
// Two kinds of test live here:
//
//  1. Detector units against synthetic mutexes: a seeded ABBA inversion is
//     reported at its FIRST occurrence (naming both chains), a self-relock
//     is reported, try_lock imposes no ordering, clean hierarchies stay
//     silent, and one inversion reports exactly once.
//
//  2. Regression runs of the REAL lock stacks under lockdep: the pooled
//     shm transport draining into a write-behind queue via the idle hook
//     (the demux.pool -> write_behind.state -> posix.* stack), and the
//     sharded backend's chunk fan-out with its serialized completion
//     callbacks (write_behind.callback -> sharded.state -> posix.*).
//     These assert ZERO reports — the codebase's documented hierarchy
//     (docs/concurrency.md) holds on real interleavings.
//
// Lockdep state is process-global, so every test goes through the
// LockdepTest fixture: handler installed, graph reset, enabled on entry,
// restored on exit.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.hpp"
#include "core/plugin.hpp"
#include "framework/test_infra.hpp"
#include "shm/bounded_queue.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"
#include "storage/write_behind.hpp"
#include "transport/shm_transport.hpp"
#include "transport/transport.hpp"

namespace dedicore {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lockdep::set_failure_handler(
        [this](const lockdep::Report& report) { reports_.push_back(report.message); });
    lockdep::reset();
    lockdep::set_enabled(true);
  }

  void TearDown() override {
    // Leave the graph clean for the next test and restore the aborting
    // default handler.
    lockdep::reset();
    lockdep::set_failure_handler(nullptr);
  }

  std::vector<std::string> reports_;
};

// ---------------------------------------------------------------------------
// Detector units
// ---------------------------------------------------------------------------

TEST_F(LockdepTest, AbbaInversionReportsAtFirstOccurrenceWithBothChains) {
  Mutex a("test.alpha");
  Mutex b("test.beta");

  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);  // records alpha -> beta
  }
  EXPECT_EQ(lockdep::report_count(), 0u);

  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);  // beta -> alpha closes the cycle: report NOW,
                          // even though nothing actually deadlocked
  }
  ASSERT_EQ(lockdep::report_count(), 1u);
  ASSERT_EQ(reports_.size(), 1u);
  // The report names both orders' chains.
  EXPECT_NE(reports_[0].find("test.beta -> test.alpha"), std::string::npos)
      << reports_[0];
  EXPECT_NE(reports_[0].find("'test.alpha' before 'test.beta'"),
            std::string::npos)
      << reports_[0];
}

TEST_F(LockdepTest, OneInversionReportsExactlyOnce) {
  Mutex a("test.once_a");
  Mutex b("test.once_b");
  {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }
  for (int i = 0; i < 3; ++i) {
    MutexLock hold_b(b);
    MutexLock hold_a(a);
  }
  EXPECT_EQ(lockdep::report_count(), 1u);
}

TEST_F(LockdepTest, ThreeLockCycleAcrossThreadsIsDetected) {
  Mutex a("test.ring_a");
  Mutex b("test.ring_b");
  Mutex c("test.ring_c");

  // Each edge recorded by a DIFFERENT thread: the graph is global.
  std::thread([&] {
    MutexLock hold_a(a);
    MutexLock hold_b(b);
  }).join();
  std::thread([&] {
    MutexLock hold_b(b);
    MutexLock hold_c(c);
  }).join();
  EXPECT_EQ(lockdep::report_count(), 0u);

  std::thread([&] {
    MutexLock hold_c(c);
    MutexLock hold_a(a);  // a->b->c->a
  }).join();
  ASSERT_EQ(lockdep::report_count(), 1u);
  EXPECT_NE(reports_[0].find("test.ring_c -> test.ring_a"), std::string::npos)
      << reports_[0];
}

TEST_F(LockdepTest, SelfRelockIsReportedBeforeTheDeadlock) {
  // The handler must intervene BEFORE the native lock call would block on
  // itself; throwing from it proves the report precedes the deadlock and
  // gets this thread out alive.
  struct Abort {};
  lockdep::set_failure_handler([](const lockdep::Report&) { throw Abort{}; });

  Mutex m("test.self");
  MutexLock hold(m);
  EXPECT_THROW(m.lock(), Abort);
  EXPECT_EQ(lockdep::report_count(), 1u);
}

TEST_F(LockdepTest, PluginFactoryMayDelegateToMakePlugin) {
  // A wrapper plugin's factory builds the plugin it wraps through the
  // registry.  Should the registry lock still be held around the factory
  // call, the inner make_plugin relocks it: the throwing handler turns
  // that self-deadlock into a test failure instead of a hang.
  struct Abort {};
  lockdep::set_failure_handler([](const lockdep::Report&) { throw Abort{}; });
  core::register_plugin("lockdep-delegating-stats", [](const auto& params) {
    return core::make_plugin("stats", params);
  });
  std::unique_ptr<core::Plugin> plugin;
  EXPECT_NO_THROW(plugin = core::make_plugin("lockdep-delegating-stats", {}));
  ASSERT_NE(plugin, nullptr);
  EXPECT_EQ(plugin->name(), "stats");
  EXPECT_EQ(lockdep::report_count(), 0u);
}

TEST_F(LockdepTest, TryLockImposesNoOrderingEdge) {
  Mutex a("test.try_a");
  Mutex b("test.try_b");

  {
    MutexLock hold_a(a);
    ASSERT_TRUE(b.try_lock());  // cannot block -> no a->b edge
    b.unlock();
  }
  {
    MutexLock hold_b(b);
    MutexLock hold_a(a);  // b->a is now the ONLY recorded order: no cycle
  }
  EXPECT_EQ(lockdep::report_count(), 0u);
}

TEST_F(LockdepTest, SiblingInstancesOfOneClassDoNotFalsePositive) {
  // Two queues lock tail/head in the same class order; sequential use by
  // different threads must not look like an inversion.
  shm::BoundedQueue<int> q1(4);
  shm::BoundedQueue<int> q2(4);
  std::thread t1([&] {
    for (int i = 0; i < 8; ++i) {
      (void)q1.try_push(i);
      (void)q2.try_push(i);
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 8; ++i) {
      (void)q2.try_pop();
      (void)q1.try_pop();
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(lockdep::report_count(), 0u);
}

TEST_F(LockdepTest, CondVarWaitKeepsTheMutexInTheHeldSet) {
  Mutex m("test.cv_mutex");
  Mutex inner("test.cv_inner");
  CondVar cv;
  bool ready = false;

  std::thread waker([&] {
    {
      MutexLock lock(m);
      ready = true;
    }
    cv.notify_all();
  });
  {
    UniqueLock lock(m);
    while (!ready) cv.wait(lock);
    // Still holding m after the wait: this acquisition must record the
    // m -> inner edge (the held set survived the wait's unlock/relock).
    MutexLock nested(inner);
  }
  waker.join();
  {
    MutexLock hold_inner(inner);
    MutexLock hold_m(m);  // contradicts the edge recorded across the wait
  }
  EXPECT_EQ(lockdep::report_count(), 1u);
}

// ---------------------------------------------------------------------------
// Real lock stacks (regression: the documented hierarchy holds)
// ---------------------------------------------------------------------------

// The worker-pool stack: pooled shm transport, concurrent clients, idle
// workers draining a write-behind queue onto a posix backend — the
// demux.pool / queue.* / segment.state / shm.ledger / write_behind.* /
// posix.* classes all interleave here.  Zero reports expected.
TEST_F(LockdepTest, PooledTransportWithIdleDrainRunsInversionFree) {
  constexpr int kClients = 3;
  constexpr int kWorkers = 3;
  constexpr int kBlocks = 24;

  testing::TempDir dir("lockdep_pool");
  storage::PosixBackend backend(dir.path());
  storage::WriteBehind write_behind(backend, 1 << 20);

  auto fabric = std::make_shared<transport::ShmFabric>(
      /*segment_capacity=*/1 << 16, /*queue_count=*/1, /*queue_capacity=*/64);
  transport::ShmServerTransport server(fabric, 0);
  server.set_worker_count(kWorkers);
  server.set_idle_hook([&write_behind] { return write_behind.drain_some(1) > 0; });

  std::atomic<int> stops{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        if (event->type == transport::EventType::kBlockWritten) {
          // Queue disk work from the consuming worker, as the server's
          // store pipeline does, then return the block.
          std::vector<std::byte> image(64, std::byte{0x5a});
          write_behind.enqueue({"blk_" + std::to_string(event->source) + "_" +
                                    std::to_string(event->block_id) + ".bin",
                                0, std::move(image)});
          server.release(event->block);
        } else if (event->type == transport::EventType::kClientStop) {
          if (stops.fetch_add(1) + 1 == kClients) server.end_of_stream();
        }
      }
    });
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      transport::ShmClientTransport client(fabric, 0, /*client_index=*/c);
      for (std::uint32_t b = 0; b < kBlocks; ++b) {
        auto ref = client.acquire_blocking(128);
        ASSERT_TRUE(ref.has_value());
        transport::Event event;
        event.type = transport::EventType::kBlockWritten;
        event.source = c;
        event.block_id = b;
        event.block = *ref;
        ASSERT_TRUE(client.publish(event));
      }
      transport::Event stop;
      stop.type = transport::EventType::kClientStop;
      stop.source = c;
      ASSERT_TRUE(client.post(stop));
    });
  }

  for (auto& t : clients) t.join();
  for (auto& t : workers) t.join();
  write_behind.close();

  EXPECT_EQ(write_behind.stats().jobs_failed, 0u);
  EXPECT_EQ(lockdep::report_count(), 0u)
      << (reports_.empty() ? "" : reports_[0]);
}

// The sharded write-behind stack: chunk fan-out with concurrent drainers,
// completion tickets publishing manifests under the serialized-callback
// lock — write_behind.callback above sharded.state / placement.state /
// posix.handles / posix.file, sharded.image above all of them.  Zero
// reports expected.
TEST_F(LockdepTest, ShardedWriteBehindFanOutRunsInversionFree) {
  testing::TempDir dir("lockdep_sharded");
  std::vector<std::filesystem::path> roots;
  for (int r = 0; r < 3; ++r) {
    roots.push_back(dir.path() / ("root" + std::to_string(r)));
    std::filesystem::create_directories(roots.back());
  }
  storage::ShardedOptions opts;
  opts.chunk_size = 512;
  storage::ShardedBackend backend(roots, opts);
  storage::WriteBehind write_behind(backend, 1 << 20);

  std::atomic<int> completions{0};
  for (int i = 0; i < 6; ++i) {
    storage::WriteBehind::Job job;
    job.path = "img_" + std::to_string(i) + ".bin";
    job.image.assign(1800, std::byte{static_cast<unsigned char>(i)});
    job.on_complete = [&completions](const Status& st) {
      EXPECT_TRUE(st.is_ok()) << st.to_string();
      ++completions;
    };
    write_behind.enqueue(std::move(job));
  }

  // Concurrent drainers spread one image's chunks across threads.
  std::vector<std::thread> drainers;
  for (int d = 0; d < 3; ++d)
    drainers.emplace_back([&] { write_behind.drain_all(); });
  for (auto& t : drainers) t.join();
  write_behind.close();

  EXPECT_EQ(completions.load(), 6);
  EXPECT_EQ(backend.file_count(), 6u);
  EXPECT_EQ(lockdep::report_count(), 0u)
      << (reports_.empty() ? "" : reports_[0]);
}

}  // namespace
}  // namespace dedicore
