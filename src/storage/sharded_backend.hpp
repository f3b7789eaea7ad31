// Four-layer sharded storage stack — the real-Lustre analogue of fsim's
// OSTs, on real disks.  One logical image written through the ordinary
// StorageBackend contract is
//
//   1. CHUNKED    into fixed-size stripes (`chunk_size` bytes; the last
//                 chunk may be short),
//   2. PLACED     across N roots by a deterministic `Placement` policy
//                 (round-robin or bytes-outstanding balancing; replicas of
//                 one chunk never share a root),
//   3. CHECKED    with a per-chunk CRC32C recorded in the manifest and
//                 verified on every read-back (`kDataLoss` on mismatch),
//   4. PERSISTED  through one `PosixBackend` per root — inheriting PR 8's
//                 crash-consistent temp -> fsync -> rename publication and
//                 per-root `posix.*` fault points (probed with the root
//                 index as the fault target).
//
// On disk an image `dir/img.h5l` becomes
//
//   <root[a]>/dir/img.h5l.chunk-0        (primary of chunk 0)
//   <root[b]>/dir/img.h5l.chunk-0        (replica, replication=2)
//   <root[c]>/dir/img.h5l.chunk-1        ...
//   <root[a]>/dir/img.h5l.manifest       (text; see below)
//
// The MANIFEST is the publication point, exactly like minidfs's MetaServer
// maps chunks to DataNodes: chunk files are invisible until the manifest
// names them, the manifest is written last through the same durable
// temp+fsync+rename path, and the logical namespace (exists / list_files /
// file_size) is defined by manifests alone.  Format (line-oriented text,
// one `chunk` line per stripe; crc in hex, roots in replica order):
//
//   dedicore-sharded-manifest v2
//   generation 3
//   size 2621440
//   chunk_size 1048576
//   replication 2
//   chunks 3
//   chunk 0 1048576 1c291ca3 0,1
//   chunk 1 1048576 e3069283 1,2
//   chunk 2 524288 8a9136aa 2,0
//
// `generation` is a per-image monotonic counter (seeded from whatever is
// on disk, so it survives restarts).  Overwriting an image can move its
// manifest onto different roots (balanced placement re-decides), and a
// degraded publish can leave an old copy behind on a root the new copies
// missed — so readers scan EVERY root and serve the highest generation,
// and publish_manifest best-effort deletes manifest copies from the
// roots the new generation does not occupy.  Either mechanism alone
// resolves an overwrite correctly; together a stale copy can neither
// shadow new data nor turn a successful overwrite into kDataLoss.
//
// Reads reassemble from the manifest, verifying each chunk's CRC; with
// replication >= 2 a missing or corrupt copy falls back to the next
// replica (a *degraded read*, counted), and only when every copy of some
// chunk is gone or corrupt does the read fail with kDataLoss.
//
// Write paths.  Both go through one plan: plan_write freezes the layout
// (generation, chunking, placement) and returns one part per chunk — each
// computes its chunk's CRC32C and writes every replica — plus a commit
// that publishes the manifest.  WriteBehind runs the parts on whichever
// drainers are free, so one image's chunks reach different roots in
// parallel; the synchronous path (create/write/close) stages the image in
// memory and close() runs its own plan inline.
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "storage/backend.hpp"
#include "storage/placement.hpp"
#include "storage/posix_backend.hpp"

namespace dedicore::storage {

struct ShardedOptions {
  std::uint64_t chunk_size = 1 << 20;  ///< stripe size in bytes
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  std::uint64_t placement_seed = 0;
  int replication = 1;  ///< copies per chunk, in [1, root count]
};

/// One image's frozen layout: chunk sizes, CRCs, and chunk -> root map.
/// Produced by plan_write (each part fills in its own chunk's CRC), and by
/// the manifest parser on the read side.
struct ChunkPlan {
  std::string path;
  /// Monotonic per-image overwrite counter; readers pick the manifest
  /// copy with the highest generation (see the header comment).
  std::uint64_t generation = 1;
  std::uint64_t total_bytes = 0;
  std::uint64_t chunk_size = 0;
  int replication = 1;
  std::vector<std::uint64_t> sizes;         ///< per-chunk byte counts
  std::vector<std::uint32_t> crcs;          ///< per-chunk CRC32C
  std::vector<ChunkPlacement> placements;   ///< per-chunk root indices

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return sizes.size();
  }
  /// Byte offset of chunk `i` within the image.
  [[nodiscard]] std::uint64_t offset_of(std::size_t i) const noexcept {
    return chunk_size * static_cast<std::uint64_t>(i);
  }
};

/// Sharded-layer counters beyond the logical StorageStats (exported in the
/// stats_json snapshot; replica writes are counted individually).
struct ShardedCounters {
  std::uint64_t chunks_written = 0;         ///< chunk-replica files landed
  std::uint64_t degraded_chunk_writes = 0;  ///< chunks that lost >=1 replica
  std::uint64_t manifests_published = 0;
  /// Publishes where some (not all) manifest copies failed to land — the
  /// image is visible but its manifest is under-replicated.
  std::uint64_t degraded_manifest_writes = 0;
  std::uint64_t corrupt_chunks_detected = 0;///< CRC/size mismatches on read
  std::uint64_t degraded_reads = 0;         ///< reads served past a bad copy
};

class ShardedBackend final : public StorageBackend {
 public:
  /// Creates every root (ConfigError if any cannot be created / written,
  /// or if two roots resolve to the same directory).  Each root runs the
  /// PosixBackend recovery scan.  `faults` is shared by all roots; root
  /// `i` probes posix.* points with target `i`, so an XML fault plan can
  /// fail exactly one root of many.
  ShardedBackend(std::vector<std::filesystem::path> roots,
                 ShardedOptions options,
                 std::shared_ptr<fault::FaultInjector> faults = nullptr);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sharded";
  }

  // -- StorageBackend contract (staging handles; close() publishes) -------
  Status create(const std::string& path, FileHandle* out,
                int stripe_count = 0) override;
  Status open(const std::string& path, FileHandle* out) override;
  Status write(FileHandle file, std::span<const std::byte> bytes,
               double* seconds = nullptr) override;
  Status pwrite(FileHandle file, std::uint64_t offset,
                std::span<const std::byte> bytes,
                double* seconds = nullptr) override;
  Status close(FileHandle file) override;

  [[nodiscard]] bool exists(const std::string& path) const override;
  [[nodiscard]] std::optional<std::vector<std::byte>> read_file(
      const std::string& path) const override;
  [[nodiscard]] std::uint64_t file_size(const std::string& path) const override;
  [[nodiscard]] std::vector<std::string> list_files() const override;
  [[nodiscard]] std::size_t file_count() const override;
  /// Logical stats: files_created and bytes_written count each published
  /// image once, at its full size (not replica bytes), whichever path
  /// wrote it; writes counts staging write()/pwrite() calls — so the
  /// conformance counters match the sim/posix backends for the same
  /// workload.  Per-root physical stats: root_stats().
  [[nodiscard]] StorageStats stats() const override;

  /// Freezes the layout of one image: generation, chunk sizes, and
  /// placement.  Placement state (balanced bytes-outstanding) advances
  /// here, atomically per image, so twin runs that plan the same sequence
  /// get identical layouts no matter how the parts run later.  Part i
  /// CRCs and writes chunk i (all replicas) straight out of the owned
  /// image; the commit publishes the manifest.
  [[nodiscard]] WritePlan plan_write(const std::string& path,
                                     std::vector<std::byte> image,
                                     int stripe_count = 0) override;

  // -- verified read ------------------------------------------------------
  /// Reassembles `path`, verifying every chunk CRC.  kNotFound when no
  /// manifest exists; kDataLoss when any chunk is unrecoverable (all
  /// copies missing, truncated, or checksum-mismatched).  `*degraded`
  /// (when non-null) reports whether any chunk was served by falling past
  /// a missing/corrupt copy.
  Status read_image(const std::string& path, std::vector<std::byte>* out,
                    bool* degraded = nullptr) const;

  // -- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t root_count() const noexcept {
    return roots_.size();
  }
  [[nodiscard]] PosixBackend& root_backend(std::size_t i) {
    return *roots_.at(i);
  }
  [[nodiscard]] const PosixBackend& root_backend(std::size_t i) const {
    return *roots_.at(i);
  }
  /// Physical per-root stats (chunk + manifest files, replica bytes).
  [[nodiscard]] std::vector<StorageStats> root_stats() const;
  [[nodiscard]] ShardedCounters counters() const;
  [[nodiscard]] const ShardedOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const Placement& placement() const noexcept {
    return *placement_;
  }
  [[nodiscard]] std::size_t open_handles() const;
  /// JSON snapshot of the whole stack: aggregate logical stats, the
  /// sharded counters, and one object per root with its physical stats —
  /// the per-root observability surface the ROADMAP's metrics item wants.
  [[nodiscard]] std::string stats_json() const;

  static constexpr std::string_view kManifestSuffix = ".manifest";
  static constexpr std::string_view kChunkInfix = ".chunk-";

 private:
  struct OpenImage;

  /// Parses `path`'s manifest: scans EVERY root and returns the copy with
  /// the highest generation, so a stale copy left behind by an overwrite
  /// (placement moved the manifest roots, or a degraded publish missed a
  /// root) can never shadow newer data.  kNotFound when none exists
  /// anywhere; kDataLoss when every copy is malformed.
  Status load_manifest(const std::string& path, ChunkPlan* out) const;
  /// Writes chunk `index` (all replicas) per the plan.  Ok when at least
  /// one replica landed (fewer than planned = degraded, logged + counted);
  /// kIoError only when every replica failed — transient, so WriteBehind
  /// retries it.  `chunk` must be exactly the planned slice.
  Status write_chunk(const ChunkPlan& plan, std::size_t index,
                     std::span<const std::byte> chunk, double* seconds);
  /// Publishes the manifest (the image becomes visible); call only after
  /// every chunk landed.  Replicated onto `replication` distinct roots.
  Status publish_manifest(const ChunkPlan& plan);
  /// Roots that receive the manifest copies for this plan.
  [[nodiscard]] std::vector<int> manifest_roots(const ChunkPlan& plan) const;
  /// Shared staging step behind write()/pwrite(): copies `bytes` into the
  /// handle's in-memory buffer at `offset` (or at EOF when `append`),
  /// growing it as needed.  The caller has already validated `offset`.
  Status stage(FileHandle handle, bool append, std::uint64_t offset,
               std::span<const std::byte> bytes, double* seconds);
  /// Next generation for `path`: one past the max of what this process
  /// has planned for the path and what is on disk.  The disk scan runs
  /// only for paths this process has not planned yet (restart / external
  /// overwrite); afterwards the in-memory counter is authoritative, so
  /// back-to-back overwrites get distinct generations even while earlier
  /// publishes are still draining in the write-behind queue.
  [[nodiscard]] std::uint64_t next_generation(const std::string& path);

  std::vector<std::unique_ptr<PosixBackend>> roots_;
  ShardedOptions options_;
  std::unique_ptr<Placement> placement_;

  /// Handle table + logical stats + counters.  stats() holds it across
  /// the per-root stats() calls, so the order sharded.state ->
  /// posix.handles is part of the storage hierarchy (and the staging
  /// handle's sharded.image lock sits above both: close() runs its plan
  /// while holding it).
  mutable Mutex mutex_{"sharded.state"};
  std::uint64_t next_id_ DEDICORE_GUARDED_BY(mutex_) = 1;
  /// Highest generation planned per path in this process (see
  /// next_generation).
  std::unordered_map<std::string, std::uint64_t> generations_
      DEDICORE_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::shared_ptr<OpenImage>> open_
      DEDICORE_GUARDED_BY(mutex_);
  StorageStats stats_ DEDICORE_GUARDED_BY(mutex_);
  /// Read-side counters mutate in const reads.
  mutable ShardedCounters counters_ DEDICORE_GUARDED_BY(mutex_);
};

}  // namespace dedicore::storage
