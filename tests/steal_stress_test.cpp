// Stress for the work-stealing demux: concurrent client-ownership steals
// vs. leader handoff vs. end_of_stream shutdown, designed to run (and be
// run in CI) under ThreadSanitizer.
//
// The scenarios hammer the transitions the conformance suite only crosses
// once per run: a worker stealing a client at the same instant the leader
// routes a fresh batch to it, leadership bouncing between workers while
// ownership tokens migrate, shutdown racing a steal of the client whose
// stop is in flight, and the idle hook running while all of the above
// happens.  Assertions are the invariants that must hold under ANY
// interleaving: exactly-once delivery, per-(worker, client) order, and
// clean termination (every worker reaches nullopt — a hang here times the
// suite out, which is the failure signal for a lost wakeup).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "framework/test_infra.hpp"
#include "transport/shm_transport.hpp"

namespace dedicore {
namespace {

using transport::Event;
using transport::EventType;

Event block_event(int source, std::uint32_t block_id) {
  Event event;
  event.type = EventType::kBlockWritten;
  event.source = source;
  event.block_id = block_id;
  return event;
}

Event stop_event(int source) {
  Event event;
  event.type = EventType::kClientStop;
  event.source = source;
  return event;
}

struct RoundResult {
  std::size_t delivered = 0;
  std::uint64_t steals = 0;
  std::uint64_t idle_drains = 0;
  bool order_ok = true;
};

/// One full producer/pool/shutdown cycle: `clients` skewed producers
/// (client 0 sends `hot_blocks`, the rest `cold_blocks`), `workers`
/// consumers with stealing at threshold 1 (maximum migration churn), an
/// optional idle hook backed by a fake job pool.  Returns what the pool
/// observed; gtest assertions fire inside for per-event violations.
RoundResult run_round(int clients, int workers, std::uint32_t hot_blocks,
                      std::uint32_t cold_blocks, int idle_jobs) {
  auto fabric = std::make_shared<transport::ShmFabric>(
      /*segment_capacity=*/1 << 20, /*queue_count=*/1, /*queue_capacity=*/64);
  transport::ShmServerTransport server(fabric, 0);
  transport::WorkerPoolOptions options;
  options.steal = true;
  options.steal_threshold = 1;
  server.set_worker_count(workers, options);

  std::atomic<int> fake_jobs{idle_jobs};
  std::atomic<bool> job_claimed{false};
  if (idle_jobs > 0) {
    // Stands in for WriteBehind::drain_some(1): claims one unit of idle
    // work until the pool of fake jobs is dry.
    server.set_idle_hook([&fake_jobs, &job_claimed] {
      if (fake_jobs.fetch_sub(1, std::memory_order_relaxed) <= 0) return false;
      job_claimed.store(true, std::memory_order_release);
      return true;
    });
  }

  // The pool starts first.  With an idle hook the producers wait until a
  // worker has claimed a fake job: one worker leads the (still empty)
  // queue drain, so its peers have nothing to consume and must reach the
  // hook.  Without the hold, a slow pool start (TSan) lets the producers
  // finish first, and no worker is ever idle.
  std::vector<std::vector<Event>> per_worker(
      static_cast<std::size_t>(workers));
  std::atomic<int> stops{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      while (auto event = server.next_event(w)) {
        per_worker[static_cast<std::size_t>(w)].push_back(*event);
        if (event->type == EventType::kClientStop &&
            stops.fetch_add(1) + 1 == clients) {
          server.end_of_stream();
        }
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    producers.emplace_back([&, c] {
      while (idle_jobs > 0 && !job_claimed.load(std::memory_order_acquire))
        std::this_thread::yield();
      transport::ShmClientTransport client(fabric, 0);
      const std::uint32_t blocks = c == 0 ? hot_blocks : cold_blocks;
      for (std::uint32_t b = 0; b < blocks; ++b)
        ASSERT_TRUE(client.post(block_event(c, b)));
      ASSERT_TRUE(client.post(stop_event(c)));
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : pool) t.join();

  RoundResult result;
  std::map<std::pair<int, std::uint32_t>, int> deliveries;
  for (int w = 0; w < workers; ++w) {
    std::map<int, std::uint32_t> last_id;
    for (const Event& event : per_worker[static_cast<std::size_t>(w)]) {
      ++result.delivered;
      if (event.type != EventType::kBlockWritten) continue;
      ++deliveries[{event.source, event.block_id}];
      auto [it, first] = last_id.try_emplace(event.source, event.block_id);
      if (!first) {
        result.order_ok &= event.block_id > it->second;
        it->second = event.block_id;
      }
    }
  }
  for (const auto& [key, count] : deliveries) result.order_ok &= count == 1;
  std::size_t expected_blocks =
      hot_blocks + static_cast<std::size_t>(clients - 1) * cold_blocks;
  EXPECT_EQ(deliveries.size(), expected_blocks);
  EXPECT_EQ(result.delivered,
            expected_blocks + static_cast<std::size_t>(clients));
  const auto stats = server.stats();
  result.steals = stats.steals;
  result.idle_drains = stats.idle_drains;
  return result;
}

// Many short rounds: each one is a complete lifecycle, so the steal /
// leader-handoff / end_of_stream windows are crossed hundreds of times per
// test under fresh state, which is where TSan finds ordering bugs.
TEST(StealStressTest, StealsVsLeaderHandoffVsShutdown) {
  std::uint64_t total_steals = 0;
  for (int round = 0; round < 40; ++round) {
    const RoundResult result = run_round(/*clients=*/6, /*workers=*/4,
                                         /*hot_blocks=*/96, /*cold_blocks=*/3,
                                         /*idle_jobs=*/0);
    EXPECT_TRUE(result.order_ok) << "round " << round;
    total_steals += result.steals;
  }
  // Any individual round may finish steal-free under an unlucky schedule;
  // across 40 skewed rounds at threshold 1 that is not plausible.
  EXPECT_GT(total_steals, 0u);
}

// The idle hook runs with the pool lock dropped while steals and shutdown
// proceed; the fake job pool must drain without deadlock or double-claim.
TEST(StealStressTest, IdleHookRacesStealsAndShutdown) {
  std::uint64_t total_idle = 0;
  for (int round = 0; round < 20; ++round) {
    const RoundResult result = run_round(/*clients=*/5, /*workers=*/4,
                                         /*hot_blocks=*/64, /*cold_blocks=*/2,
                                         /*idle_jobs=*/32);
    EXPECT_TRUE(result.order_ok) << "round " << round;
    total_idle += result.idle_drains;
  }
  // Parked workers must have picked up at least some of the fake jobs.
  EXPECT_GT(total_idle, 0u);
}

// Shutdown through close_intake (the shm-only hard close) instead of the
// stop protocol: producers race the closing queue, workers drain whatever
// was accepted.  The invariant is weaker — a prefix per client — but the
// teardown interleavings (close vs. steal vs. parked worker) are ones the
// stop protocol never produces.
TEST(StealStressTest, CloseIntakeRacesStealingPool) {
  for (int round = 0; round < 40; ++round) {
    auto fabric = std::make_shared<transport::ShmFabric>(
        1 << 20, /*queue_count=*/1, /*queue_capacity=*/32);
    transport::ShmServerTransport server(fabric, 0);
    transport::WorkerPoolOptions options;
    options.steal = true;
    options.steal_threshold = 1;
    constexpr int kWorkers = 3;
    constexpr int kClients = 4;
    server.set_worker_count(kWorkers, options);

    std::vector<std::thread> producers;
    std::array<std::atomic<std::uint32_t>, kClients> accepted{};
    for (int c = 0; c < kClients; ++c) {
      producers.emplace_back([&, c] {
        transport::ShmClientTransport client(fabric, 0);
        for (std::uint32_t b = 0; b < 64; ++b) {
          if (!client.post(block_event(c, b))) break;  // intake closed
          accepted[static_cast<std::size_t>(c)].store(b + 1);
        }
      });
    }
    std::vector<std::vector<Event>> per_worker(kWorkers);
    std::vector<std::thread> pool;
    for (int w = 0; w < kWorkers; ++w) {
      pool.emplace_back([&, w] {
        while (auto event = server.next_event(w))
          per_worker[static_cast<std::size_t>(w)].push_back(*event);
      });
    }
    std::this_thread::yield();
    server.close_intake();
    for (auto& t : producers) t.join();
    for (auto& t : pool) t.join();

    // Everything accepted by the queue was delivered exactly once, and
    // per client the delivered ids are exactly a prefix of what was sent.
    std::map<int, std::uint32_t> max_seen;
    std::map<std::pair<int, std::uint32_t>, int> deliveries;
    std::size_t delivered = 0;
    for (int w = 0; w < kWorkers; ++w) {
      for (const Event& event : per_worker[static_cast<std::size_t>(w)]) {
        ++delivered;
        ++deliveries[{event.source, event.block_id}];
        auto& top = max_seen[event.source];
        top = std::max(top, event.block_id + 1);
      }
    }
    for (const auto& [key, count] : deliveries)
      EXPECT_EQ(count, 1) << "round " << round;
    std::size_t accepted_total = 0;
    for (int c = 0; c < kClients; ++c) {
      const std::uint32_t sent = accepted[static_cast<std::size_t>(c)].load();
      accepted_total += sent;
      // Delivered ids form a contiguous prefix: count == max id + 1.
      const auto it = max_seen.find(c);
      const std::uint32_t seen = it == max_seen.end() ? 0 : it->second;
      EXPECT_LE(seen, sent) << "round " << round;
      std::uint32_t count_for_client = 0;
      for (const auto& [key, count] : deliveries)
        if (key.first == c) ++count_for_client;
      EXPECT_EQ(count_for_client, seen)
          << "client " << c << " has gaps, round " << round;
    }
    EXPECT_EQ(delivered, accepted_total) << "round " << round;
  }
}

}  // namespace
}  // namespace dedicore
