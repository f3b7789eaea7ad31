// One episode of the end-to-end benchmark of the dedicated-core I/O path.
//
// Four minimpi ranks in this process (three CM1 client ranks, one
// dedicated server rank) run core::Runtime over the shm or MPI transport,
// with the posix or sharded storage backend writing real files under
// --scratch.  The clients run a closed loop for --seconds, the server
// drains until every image is durable, and the benchmark reads every image
// back and checks it against the digests the clients took of the bytes
// they passed to write(), then deletes its files.  A few initialize-only
// worlds follow, for setup_s.
//
// The last line of stdout is one JSON object with the episode's raw facts
// (latency samples, byte counts, layer counters, failures).  run.py runs
// one process per episode, so every episode starts from a fresh heap, and
// turns the episodes into metrics; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/plugin.hpp"
#include "core/runtime.hpp"
#include "fsim/filesystem.hpp"
#include "h5lite/h5lite.hpp"
#include "minimpi/minimpi.hpp"
#include "sim/cm1_proxy.hpp"
#include "storage/posix_backend.hpp"
#include "storage/sharded_backend.hpp"

using namespace dedicore;
namespace fs = std::filesystem;

namespace {

constexpr int kClients = 3;
constexpr int kWorld = kClients + 1;
constexpr std::size_t kFields = 5;
constexpr std::array<const char*, kFields> kFieldNames = {"theta", "qv", "u",
                                                          "v", "w"};
constexpr const char* kBasename = "cm1";
constexpr const char* kBuffer = "64MiB";  ///< shared segment / credit pool
constexpr std::uint64_t kGrid = 48;       ///< per-client cube edge

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Shape {
  std::string name;
  bool nodes_mode = false;   ///< dedicated I/O node over the MPI transport
  int steps_per_output = 1;  ///< stencil steps (and allreduces) per output
  int roots = 1;             ///< 1 = single posix root, >1 = sharded
  std::string chunk_size;    ///< sharded stripe size
  std::string codec = "none";

  [[nodiscard]] std::string flush_policy() const {
    return roots > 1 ? "fsync per chunk, manifest published after chunks"
                     : "fsync per image, then rename";
  }
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = [] {
    std::vector<Shape> v;
    // The paper's regime: compute hides I/O, storage is off the critical
    // path, so write_* and client_io_frac see only the client+shm layers.
    Shape overlap;
    overlap.name = "cm1_overlap";
    overlap.steps_per_output = 30;
    v.push_back(overlap);
    // Dedicated node over MPI frames + credits, codec on the server, and
    // the sharded storage stack behind it: the transport, emit and
    // sharded layers work differently from the shm workload.
    Shape nodes;
    nodes.name = "cm1_nodes_xorlzs";
    nodes.nodes_mode = true;
    nodes.steps_per_output = 3;
    nodes.roots = 2;
    nodes.chunk_size = "4MiB";
    nodes.codec = "xor+lzs";
    v.push_back(nodes);
    return v;
  }();
  return all;
}

const Shape* find_shape(const std::string& name) {
  for (const Shape& s : shapes())
    if (s.name == name) return &s;
  return nullptr;
}

fs::path root_dir(const fs::path& dir, int i) {
  return dir / ("root" + std::to_string(i));
}

std::string image_path(std::int64_t iteration) {
  return std::string(kBasename) + "/node0_s0_it" + std::to_string(iteration) +
         ".h5l";
}

/// Runtime::initialize on this rank, storing in `cpu_s[rank]` the CPU time
/// the calling thread spent inside it.  CPU time, not wall time: on a
/// shared host the wall time of this sub-millisecond collective is set by
/// thread wake-up latency, not by the work initialize does.
core::Runtime timed_initialize(const core::Configuration& config,
                               minimpi::Comm& world, fsim::FileSystem& fs,
                               std::array<double, kWorld>& cpu_s) {
  const auto thread_cpu = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double start = thread_cpu();
  core::Runtime rt = core::Runtime::initialize(config, world, fs);
  cpu_s[static_cast<std::size_t>(world.rank())] = thread_cpu() - start;
  return rt;
}

core::Configuration make_config(const Shape& shape, const fs::path& dir,
                                std::uint64_t seed,
                                const std::string& store_plugin) {
  std::ostringstream xml;
  xml << "<simulation name=\"cm1\" cores_per_node=\"" << kWorld
      << "\" dedicated_cores=\"1\"";
  if (shape.nodes_mode)
    xml << " dedicated_mode=\"nodes\" dedicated_nodes=\"1\""
           " server_workers=\"1\"";
  xml << ">\n<buffer size=\"" << kBuffer
      << "\" queue=\"1024\" policy=\"block\"/>\n<data>\n"
      << "<layout name=\"grid\" type=\"float32\" dimensions=\"" << kGrid
      << "," << kGrid << "," << kGrid << "\"/>\n";
  for (const char* field : kFieldNames)
    xml << "<variable name=\"" << field << "\" layout=\"grid\"/>\n";
  xml << "</data>\n<storage basename=\"" << kBasename << "\" codec=\""
      << shape.codec << "\" backend=\"posix\"";
  if (shape.roots > 1) {
    xml << " roots=\"";
    for (int r = 0; r < shape.roots; ++r)
      xml << (r ? ";" : "") << root_dir(dir, r).string();
    xml << "\" chunk_size=\"" << shape.chunk_size << "\"";
  } else {
    xml << " path=\"" << root_dir(dir, 0).string() << "\"";
  }
  // placement_seed is parsed as an int.
  xml << " placement_seed=\"" << (seed % 1000000007ull) << "\"/>\n"
      << "<actions><event name=\"end_iteration\" plugin=\"" << store_plugin
      << "\"/></actions>\n</simulation>\n";
  return core::Configuration::from_string(xml.str());
}

// ---------------------------------------------------------------------------
// Output digests: the client hashes what it passes to write(), the
// verifier hashes what it decodes from disk.  Every step is a bijection of
// the running state, so any changed word changes the digest.
// ---------------------------------------------------------------------------

std::uint64_t digest(std::span<const std::byte> bytes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h ^= w;
    h = ((h << 29) | (h >> 35)) * 0xbf58476d1ce4e5b9ull;
  }
  for (; i < bytes.size(); ++i)
    h = (h ^ static_cast<std::uint64_t>(bytes[i])) * 0x100000001b3ull;
  return h;
}

using Digests = std::array<std::uint64_t, kFields>;

// ---------------------------------------------------------------------------
// Benchmark-side spans around the store plugin (traced episodes only)
// ---------------------------------------------------------------------------

struct StoreSpans {
  std::mutex mutex;
  std::vector<double> seconds;
};

StoreSpans& store_spans() {
  static StoreSpans spans;
  return spans;
}

/// Delegates to the built-in "store" plugin and records one span per run.
class TracedStore final : public core::Plugin {
 public:
  explicit TracedStore(std::map<std::string, std::string> params)
      : params_(std::move(params)) {}
  [[nodiscard]] std::string_view name() const noexcept override {
    return "e2e_traced_store";
  }
  void run(core::PluginContext& context) override {
    // Built on first use: factories run under the plugin registry's lock,
    // so this one cannot call make_plugin itself.
    if (inner_ == nullptr) inner_ = core::make_plugin("store", params_);
    Stopwatch span;
    inner_->run(context);
    const double s = span.elapsed_seconds();
    std::lock_guard<std::mutex> lock(store_spans().mutex);
    store_spans().seconds.push_back(s);
  }

 private:
  std::map<std::string, std::string> params_;
  std::unique_ptr<core::Plugin> inner_;
};

/// Self-test hook: never returns, so no iteration completes and the
/// clients fill the segment.  Only --stall binds it.
class StallPlugin final : public core::Plugin {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "e2e_stall";
  }
  void run(core::PluginContext&) override {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
};

void register_bench_plugins() {
  static const bool once = [] {
    core::register_plugin("e2e_traced_store", [](const auto& params) {
      return std::make_unique<TracedStore>(params);
    });
    core::register_plugin("e2e_stall", [](const auto&) {
      return std::make_unique<StallPlugin>();
    });
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------------
// Episode state
// ---------------------------------------------------------------------------

struct ClientLog {
  std::vector<double> write_us;
  std::vector<double> end_iteration_us;
  std::vector<Digests> digests;  ///< per iteration
  double first_write_at = 0.0;
  double io_s = 0.0;
  double wall_s = 0.0;        ///< loop wall time minus digest bookkeeping
  double step_s = 0.0;        ///< inside Cm1Proxy::step (traced only)
  std::uint64_t raw_bytes = 0;
  std::uint64_t bad_status = 0;
  core::ClientStats stats;
  transport::TransportStats transport;
};

struct ServerLog {
  double returned_at = 0.0;
  core::ServerStats stats;
  shm::SegmentStats segment;
  storage::WriteBehindStats write_behind;
  storage::StorageStats storage;
  storage::ShardedCounters sharded;
  core::EmitStats emit;
};

/// What the watchdog reads while the episode runs.
struct Progress {
  std::array<std::atomic<std::int64_t>, kClients> closed{};  ///< last closed it
  std::array<std::atomic<int>, kClients> in_call{};
  std::atomic<std::uint64_t> ops_done{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::shared_ptr<core::NodeRuntime> server_node;  ///< guarded by mutex
};

struct EpisodeResult {
  std::vector<double> setup_s;  ///< initialize CPU time: episode, probes
  double peak_rss_mb = 0.0;     ///< before the read-back check
  double persist_s = 0.0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t image_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::array<ClientLog, kClients> clients;
  ServerLog server;
  std::vector<double> store_run_s;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 4.0;      ///< this episode's closed-loop window
  bool trace = false;        ///< bind the traced store plugin
  fs::path scratch;
  int setup_probes = 0;      ///< initialize-only worlds after the episode
  double grace = 30.0;       ///< deadline = window + grace
  bool corrupt_one = false;  ///< self-test: flip one byte in one image
  bool stall = false;        ///< self-test: bind the never-returning plugin
};

/// Builds one JSON object, keys in insertion order.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& list(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", values[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  std::string body_;
};

/// The workload and build half of the run record.
std::string record_json(const Shape& shape, const Options& opt) {
  return Json()
      .str("workload", shape.name)
      .count("seed", opt.seed)
      .raw("shape", Json()
                        .count("clients", kClients)
                        .count("server_ranks", 1)
                        .count("server_workers", 1)
                        .str("policy", "block")
                        .str("transport", shape.nodes_mode ? "mpi" : "shm")
                        .count("grid", kGrid)
                        .count("fields", kFields)
                        .str("dtype", "float32")
                        .count("steps_per_output",
                               static_cast<std::uint64_t>(shape.steps_per_output))
                        .str("backend", shape.roots > 1 ? "sharded" : "posix")
                        .count("roots", static_cast<std::uint64_t>(shape.roots))
                        .str("chunk_size", shape.chunk_size)
                        .str("codec", shape.codec)
                        .str("buffer", kBuffer)
                        .text())
      .str("flush_policy", shape.flush_policy())
      .str("compiler", E2E_COMPILER)
      .str("build_type", E2E_BUILD_TYPE)
      .text();
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

/// Images missing on disk for iterations [0, through], read straight from
/// the filesystem so the check never takes a lock a stuck thread holds.
std::uint64_t images_missing(const Shape& shape, const fs::path& dir,
                             std::int64_t through) {
  std::uint64_t missing = 0;
  for (std::int64_t it = 0; it <= through; ++it) {
    bool found = false;
    for (int r = 0; r < shape.roots && !found; ++r) {
      std::error_code ec;
      const std::string suffix = shape.roots > 1 ? ".manifest" : "";
      found = fs::exists(root_dir(dir, r) / (image_path(it) + suffix), ec);
    }
    if (!found) ++missing;
  }
  return missing;
}

/// Runs `on_stall` (which must not return) unless the episode ends before
/// `deadline_s` seconds from construction.
class Watchdog {
 public:
  Watchdog(Progress& progress, double deadline_s,
           std::function<void()> on_stall)
      : progress_(progress), thread_([this, deadline_s, on_stall] {
          std::unique_lock<std::mutex> lock(progress_.mutex);
          const bool done = progress_.cv.wait_for(
              lock, std::chrono::duration<double>(deadline_s),
              [this] { return progress_.done; });
          if (!done) {
            lock.unlock();
            on_stall();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(progress_.mutex);
      progress_.done = true;
    }
    progress_.cv.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  Progress& progress_;
  std::thread thread_;
};

[[noreturn]] void report_stall(const Shape& shape, const Options& opt,
                               const fs::path& dir, Progress& progress) {
  std::shared_ptr<core::NodeRuntime> node;
  {
    std::lock_guard<std::mutex> lock(progress.mutex);
    node = progress.server_node;
  }
  std::printf("STALL: episode deadline passed (window + %.1f s grace)\n",
              opt.grace);
  if (node == nullptr) std::printf("  server rank not initialized\n");
  if (node != nullptr && node->fabric != nullptr) {
    const shm::SegmentStats seg = node->segment().stats();
    std::printf("  segment: used=%llu capacity=%llu largest_free_block=%llu\n",
                static_cast<unsigned long long>(seg.used),
                static_cast<unsigned long long>(seg.capacity),
                static_cast<unsigned long long>(seg.largest_free_block));
  }
  if (node != nullptr && node->write_behind != nullptr) {
    std::printf("  write_behind: pending_bytes=%llu pending_jobs=%zu\n",
                static_cast<unsigned long long>(
                    node->write_behind->pending_bytes()),
                node->write_behind->pending_jobs());
  }
  std::int64_t max_closed = -1;
  std::uint64_t in_call = 0;
  for (int c = 0; c < kClients; ++c) {
    const std::int64_t closed = progress.closed[c].load();
    const int busy = progress.in_call[c].load();
    std::printf("  client %d: last_closed_iteration=%lld in_call=%d\n", c,
                static_cast<long long>(closed), busy);
    max_closed = std::max(max_closed, closed);
    in_call += static_cast<std::uint64_t>(busy);
  }
  // Unfinished operations: calls still inside the runtime, and the image
  // of every iteration some client closed that is not on disk.
  const std::uint64_t expected_images =
      static_cast<std::uint64_t>(max_closed + 1);
  const std::uint64_t unfinished =
      in_call + images_missing(shape, dir, max_closed);
  std::printf("  unfinished operations counted as failed: %llu\n",
              static_cast<unsigned long long>(unfinished));
  const std::string line =
      Json()
          .raw("stall", "true")
          .count("attempted",
                 progress.ops_done.load() + in_call + expected_images)
          .count("failed", unfinished)
          .raw("record", record_json(shape, opt))
          .text();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

// ---------------------------------------------------------------------------
// Read-back check
// ---------------------------------------------------------------------------

/// Flips one byte in the middle of iteration `it`'s image (posix) or of
/// its first chunk file (sharded).
void corrupt_image(const Shape& shape, const fs::path& dir, std::int64_t it) {
  fs::path target;
  if (shape.roots == 1) {
    target = root_dir(dir, 0) / image_path(it);
  } else {
    const std::string prefix =
        fs::path(image_path(it)).filename().string() +
        std::string(storage::ShardedBackend::kChunkInfix);
    for (int r = 0; r < shape.roots && target.empty(); ++r)
      for (const auto& entry :
           fs::recursive_directory_iterator(root_dir(dir, r)))
        if (entry.is_regular_file() &&
            entry.path().filename().string().starts_with(prefix)) {
          target = entry.path();
          break;
        }
  }
  std::fstream f(target, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "corrupt-one: cannot open %s\n", target.c_str());
    std::exit(2);
  }
  const auto offset = static_cast<std::streamoff>(fs::file_size(target) / 2);
  char byte = 0;
  f.seekg(offset);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(offset);
  f.write(&byte, 1);
  std::printf("corrupt-one: flipped byte %lld of %s\n",
              static_cast<long long>(offset), target.c_str());
}

/// Checks one image: readable (chunk CRCs verified on sharded), parsable,
/// and every dataset decodes to the bytes its client passed to write().
bool image_ok(const storage::PosixBackend* posix,
              const storage::ShardedBackend* sharded,
              const std::array<ClientLog, kClients>& clients, std::size_t it,
              std::uint64_t* bytes) {
  const std::string path = image_path(static_cast<std::int64_t>(it));
  std::vector<std::byte> image;
  if (posix != nullptr) {
    auto content = posix->read_file(path);
    if (!content) {
      std::printf("check: %s missing\n", path.c_str());
      return false;
    }
    image = std::move(*content);
  } else if (const Status st = sharded->read_image(path, &image); !st.is_ok()) {
    std::printf("check: %s: %s\n", path.c_str(), st.to_string().c_str());
    return false;
  }
  *bytes += image.size();
  try {
    const h5lite::File file = h5lite::File::parse(std::move(image));
    for (int c = 0; c < kClients; ++c) {
      for (std::size_t f = 0; f < kFields; ++f) {
        const std::string name =
            std::string(kFieldNames[f]) + "/r" + std::to_string(c) + "_b0";
        const h5lite::Dataset* ds = file.find_dataset(name);
        if (ds == nullptr || digest(ds->read()) != clients[c].digests[it][f]) {
          std::printf("check: %s: dataset %s %s\n", path.c_str(), name.c_str(),
                      ds == nullptr ? "missing" : "mismatch");
          return false;
        }
      }
    }
  } catch (const std::exception& e) {
    std::printf("check: %s: unparsable (%s)\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

/// Checks the images of iterations [0, iterations), spread over the host's
/// cores (the episode's window is over, so nothing is being measured).
/// Returns the number of bad or missing images plus any unexpected extra
/// files; adds the image bytes read to *bytes.
std::uint64_t verify_images(const Shape& shape, const fs::path& dir,
                            const std::array<ClientLog, kClients>& clients,
                            std::size_t iterations, std::uint64_t* bytes) {
  std::unique_ptr<storage::PosixBackend> posix;
  std::unique_ptr<storage::ShardedBackend> sharded;
  std::size_t files = 0;
  if (shape.roots == 1) {
    posix = std::make_unique<storage::PosixBackend>(root_dir(dir, 0));
    files = posix->file_count();
  } else {
    std::vector<fs::path> roots;
    for (int r = 0; r < shape.roots; ++r) roots.push_back(root_dir(dir, r));
    sharded = std::make_unique<storage::ShardedBackend>(
        std::move(roots), storage::ShardedOptions{});
    files = sharded->file_count();
  }
  std::uint64_t bad = files > iterations ? files - iterations : 0;
  if (bad != 0)
    std::printf("check: %zu files for %zu iterations\n", files, iterations);

  struct Tally {
    std::uint64_t bad = 0;
    std::uint64_t bytes = 0;
  };
  std::array<Tally, kWorld> tallies{};
  {
    std::vector<std::jthread> checkers;
    for (std::size_t t = 0; t < tallies.size(); ++t)
      checkers.emplace_back([&, t] {
        for (std::size_t it = t; it < iterations; it += tallies.size())
          if (!image_ok(posix.get(), sharded.get(), clients, it,
                        &tallies[t].bytes))
            ++tallies[t].bad;
      });
  }
  for (const Tally& tally : tallies) {
    bad += tally.bad;
    *bytes += tally.bytes;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// The episode: fresh world, closed loop for --seconds, read-back
// ---------------------------------------------------------------------------

EpisodeResult run_episode(const Shape& shape, const Options& opt) {
  EpisodeResult result;
  const bool traced = opt.trace;
  const double window = opt.seconds;
  const fs::path dir = opt.scratch / "episode";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string plugin = opt.stall ? "e2e_stall"
                             : traced  ? "e2e_traced_store"
                                       : "store";
  const core::Configuration config = make_config(shape, dir, opt.seed, plugin);
  fsim::FileSystem sim_fs{fsim::StorageConfig{}, fsim::TimeScale{}};

  Progress progress;
  for (auto& c : progress.closed) c.store(-1);
  std::array<double, kWorld> init_s{};
  {
    Watchdog watchdog(progress, window + opt.grace,
                      [&] { report_stall(shape, opt, dir, progress); });
    minimpi::run_world(kWorld, [&](minimpi::Comm& world) {
      core::Runtime rt = timed_initialize(config, world, sim_fs, init_s);

      if (rt.is_server()) {
        {
          std::lock_guard<std::mutex> lock(progress.mutex);
          progress.server_node = rt.node_ptr();
        }
        rt.run_server();
        ServerLog& log = result.server;
        log.returned_at = now_seconds();
        core::NodeRuntime& node = rt.node();
        log.stats = rt.server_stats();
        log.segment = node.segment().stats();
        log.write_behind = node.write_behind->stats();
        log.storage = node.storage->stats();
        if (auto* s = dynamic_cast<storage::ShardedBackend*>(node.storage.get())) {
          // The chunk path the write-behind queue takes leaves the sharded
          // backend's logical stats at zero; its roots count the writes.
          log.storage = storage::StorageStats{};
          for (const storage::StorageStats& root : s->root_stats()) {
            log.storage.write_seconds += root.write_seconds;
            log.storage.files_created += root.files_created;
            log.storage.writes += root.writes;
            log.storage.bytes_written += root.bytes_written;
          }
          log.sharded = s->counters();
        }
        log.emit = node.emit->stats();
        return;
      }

      minimpi::Comm& comm = rt.client_comm();
      const int c = comm.rank();
      ClientLog& log = result.clients[static_cast<std::size_t>(c)];
      sim::Cm1Config cm1;
      cm1.nx = cm1.ny = cm1.nz = kGrid;
      cm1.rank = c;
      cm1.world_size = kClients;
      cm1.seed = opt.seed;
      sim::Cm1Proxy proxy(cm1);
      core::Client& client = rt.client();
      std::array<std::span<const float>, kFields> fields = {
          proxy.theta(), proxy.qv(), proxy.u(), proxy.v(), proxy.w()};
      Digests digests{};
      std::int64_t digested_step = -1;
      double bookkeeping_s = 0.0;

      comm.barrier();
      const double start = now_seconds();
      const double stop_at = start + window;
      for (;;) {
        double stop = 0.0;
        for (int s = 0; s < shape.steps_per_output; ++s) {
          Stopwatch step;
          proxy.step();
          if (traced) log.step_s += step.elapsed_seconds();
          // Stands in for CM1's per-step halo/CFL reductions; it also
          // carries the stop decision, so every client stops at the same
          // output boundary.
          const float probe = fields[0][fields[0].size() / 2];
          const std::vector<double> reduced = comm.allreduce(
              std::vector<double>{probe, now_seconds() >= stop_at ? 1.0 : 0.0},
              [](double a, double b) { return std::max(a, b); });
          stop = reduced[1];
        }
        if (stop > 0.0) break;

        if (proxy.current_step() != digested_step) {
          Stopwatch hashing;
          for (std::size_t f = 0; f < kFields; ++f)
            digests[f] = digest(std::as_bytes(fields[f]));
          digested_step = proxy.current_step();
          bookkeeping_s += hashing.elapsed_seconds();
        }
        log.digests.push_back(digests);
        for (std::size_t f = 0; f < kFields; ++f) {
          progress.in_call[static_cast<std::size_t>(c)].store(1);
          const double t0 = now_seconds();
          if (log.first_write_at == 0.0) log.first_write_at = t0;
          const Status st = client.write(kFieldNames[f], fields[f]);
          const double dt = now_seconds() - t0;
          progress.in_call[static_cast<std::size_t>(c)].store(0);
          progress.ops_done.fetch_add(1);
          log.write_us.push_back(dt * 1e6);
          log.io_s += dt;
          log.raw_bytes += fields[f].size_bytes();
          if (!st.is_ok()) ++log.bad_status;
        }
        progress.in_call[static_cast<std::size_t>(c)].store(1);
        const double t0 = now_seconds();
        const Status st = client.end_iteration();
        const double dt = now_seconds() - t0;
        progress.in_call[static_cast<std::size_t>(c)].store(0);
        progress.ops_done.fetch_add(1);
        log.end_iteration_us.push_back(dt * 1e6);
        log.io_s += dt;
        if (!st.is_ok()) ++log.bad_status;
        progress.closed[static_cast<std::size_t>(c)].store(
            static_cast<std::int64_t>(log.digests.size()) - 1);
      }
      log.wall_s = now_seconds() - start - bookkeeping_s;
      log.stats = client.stats();
      log.transport = client.transport_stats();
      rt.finalize();
    });
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.setup_s.push_back(*std::max_element(init_s.begin(), init_s.end()));
  double first_write = 0.0;
  for (const ClientLog& log : result.clients) {
    result.raw_bytes += log.raw_bytes;
    if (log.first_write_at > 0.0 &&
        (first_write == 0.0 || log.first_write_at < first_write))
      first_write = log.first_write_at;
  }
  result.persist_s = result.server.returned_at - first_write;
  {
    std::lock_guard<std::mutex> lock(store_spans().mutex);
    result.store_run_s = store_spans().seconds;
  }

  // Operations: every write and end_iteration call, plus one image per
  // iteration.  Coupled clients close the same number of iterations.
  std::uint64_t calls = 0, bad_status = 0;
  for (const ClientLog& log : result.clients) {
    calls += log.write_us.size() + log.end_iteration_us.size();
    bad_status += log.bad_status;
  }
  std::size_t iterations = result.clients[0].digests.size();
  std::uint64_t uneven = 0;
  for (const ClientLog& log : result.clients) {
    if (log.digests.size() != iterations) ++uneven;
    iterations = std::min(iterations, log.digests.size());
  }
  if (opt.corrupt_one && iterations > 0)
    corrupt_image(shape, dir, static_cast<std::int64_t>(iterations / 2));
  const std::uint64_t bad_images = verify_images(
      shape, dir, result.clients, iterations, &result.image_bytes);
  result.attempted = calls + iterations;
  result.failed = bad_status + bad_images + uneven;
  fs::remove_all(dir);
  return result;
}

/// Initialize-only world: measures Runtime::initialize without a run.  The
/// probes share one output directory, as a restarted run would.
double probe_setup(const Shape& shape, const Options& opt) {
  const core::Configuration config =
      make_config(shape, opt.scratch / "setup", opt.seed, "store");
  fsim::FileSystem sim_fs{fsim::StorageConfig{}, fsim::TimeScale{}};
  std::array<double, kWorld> init_s{};
  minimpi::run_world(kWorld, [&](minimpi::Comm& world) {
    core::Runtime rt = timed_initialize(config, world, sim_fs, init_s);
    if (rt.is_server()) {
      rt.run_server();
    } else {
      rt.finalize();
    }
  });
  return *std::max_element(init_s.begin(), init_s.end());
}

// ---------------------------------------------------------------------------
// The episode's facts, for run.py
// ---------------------------------------------------------------------------

/// Layer counters of this episode, named as the per-layer metrics they
/// feed.  run.py sums them over traced episodes, except the *_peak/max
/// values (maximum) and the pipeline percentiles (median).
std::string layers_json(const EpisodeResult& e) {
  double step_s = 0, write_s = 0, end_s = 0;
  std::uint64_t writes = 0, write_bytes = 0;
  transport::TransportStats tr{};
  for (const ClientLog& log : e.clients) {
    step_s += log.step_s;
    for (double us : log.write_us) write_s += us * 1e-6;
    for (double us : log.end_iteration_us) end_s += us * 1e-6;
    writes += log.stats.writes;
    write_bytes += log.stats.bytes_written;
    tr.events_sent += log.transport.events_sent;
    tr.wire_messages += log.transport.wire_messages;
    tr.credit_waits += log.transport.credit_waits;
    tr.bytes_shipped += log.transport.bytes_shipped;
  }
  const ServerLog& s = e.server;
  // The emit stage counts every dataset; the metrics count the ones that
  // went through a codec.  All datasets share one layout, and a dataset
  // stored raw occupies exactly its payload, so the split is exact.
  const core::EmitStats& emit = s.emit;
  const std::uint64_t datasets =
      emit.datasets_compressed + emit.datasets_stored_raw;
  const std::uint64_t per_dataset = datasets ? emit.raw_bytes / datasets : 0;
  return Json()
      .num("sim.step_s", step_s)
      .count("client.writes", writes)
      .count("client.write_bytes", write_bytes)
      .num("client.write_s", write_s)
      .num("client.end_iteration_s", end_s)
      .count("shm.segment_peak_bytes", s.segment.peak_used)
      .count("shm.allocations", s.segment.allocations)
      .count("shm.failed_allocations", s.segment.failed_allocations)
      .count("transport.events_sent", tr.events_sent)
      .count("transport.wire_messages", tr.wire_messages)
      .count("transport.credit_waits", tr.credit_waits)
      .count("transport.bytes_shipped", tr.bytes_shipped)
      .num("server.busy_s", s.stats.busy_seconds)
      .num("server.idle_s", s.stats.idle_seconds)
      .count("server.events", s.stats.events_processed)
      .num("server.pipeline_p50_ms", s.stats.pipeline_time.median * 1e3)
      .num("server.pipeline_p99_ms", s.stats.pipeline_time.p99 * 1e3)
      .count("server.steals", s.stats.steals)
      .count("server.idle_drain_jobs", s.stats.idle_drain_jobs)
      .num("emit.compress_s", emit.compress_seconds)
      .num("emit.probe_s", emit.probe_seconds)
      .count("emit.raw_bytes", per_dataset * emit.datasets_compressed)
      .count("emit.stored_bytes",
             emit.stored_bytes - per_dataset * emit.datasets_stored_raw)
      .count("emit.adaptive_skips", emit.adaptive_skips)
      .num("write_behind.enqueue_block_s",
           s.write_behind.enqueue_block_seconds)
      .num("write_behind.drain_s", s.write_behind.drain_seconds)
      .count("write_behind.max_pending_bytes",
             s.write_behind.max_pending_bytes)
      .count("write_behind.jobs_written", s.write_behind.jobs_written)
      .count("write_behind.retries", s.write_behind.retries)
      .count("write_behind.jobs_failed", s.write_behind.jobs_failed)
      .num("storage.write_s", s.storage.write_seconds)
      .count("storage.files_created", s.storage.files_created)
      .count("storage.writes", s.storage.writes)
      .count("storage.bytes_written", s.storage.bytes_written)
      .count("sharded.chunks_written", s.sharded.chunks_written)
      .count("sharded.manifests_published", s.sharded.manifests_published)
      .text();
}

std::string episode_json(const Shape& shape, const Options& opt,
                         const EpisodeResult& e) {
  std::vector<double> write_us, end_iteration_us;
  double io_s = 0, wall_s = 0;
  for (const ClientLog& log : e.clients) {
    write_us.insert(write_us.end(), log.write_us.begin(), log.write_us.end());
    end_iteration_us.insert(end_iteration_us.end(),
                            log.end_iteration_us.begin(),
                            log.end_iteration_us.end());
    io_s += log.io_s;
    wall_s += log.wall_s;
  }
  return Json()
      .raw("traced", opt.trace ? "true" : "false")
      .count("attempted", e.attempted)
      .count("failed", e.failed)
      .num("persist_s", e.persist_s)
      .count("raw_bytes", e.raw_bytes)
      .count("image_bytes", e.image_bytes)
      .num("io_s", io_s)
      .num("wall_s", wall_s)
      .num("peak_rss_mb", e.peak_rss_mb)
      .list("setup_s", e.setup_s)
      .list("write_us", write_us)
      .list("end_iteration_us", end_iteration_us)
      .list("store_run_s", e.store_run_s)
      .raw("layers", layers_json(e))
      .raw("record", record_json(shape, opt))
      .text();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--setup-probes N] [--grace S] [--corrupt-one] "
               "[--stall]\nworkloads:",
               argv0);
  for (const Shape& s : shapes()) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch" && has_value) {
      opt.scratch = argv[++i];
    } else if (arg == "--setup-probes" && has_value) {
      opt.setup_probes = std::atoi(argv[++i]);
    } else if (arg == "--grace" && has_value) {
      opt.grace = std::strtod(argv[++i], nullptr);
    } else if (arg == "--corrupt-one") {
      opt.corrupt_one = true;
    } else if (arg == "--stall") {
      opt.stall = true;
    } else {
      return usage(argv[0]);
    }
  }
  const Shape* shape = find_shape(opt.workload);
  if (shape == nullptr || opt.scratch.empty() || !(opt.seconds > 0.0))
    return usage(argv[0]);
  register_bench_plugins();
  fs::create_directories(opt.scratch);

  EpisodeResult result = run_episode(*shape, opt);
  for (int p = 0; p < opt.setup_probes; ++p)
    result.setup_s.push_back(probe_setup(*shape, opt));
  fs::remove_all(opt.scratch / "setup");
  std::printf("%s\n", episode_json(*shape, opt, result).c_str());
  return result.failed == 0 ? 0 : 1;
}
