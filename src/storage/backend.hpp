// Pluggable persistence layer behind every h5lite emit path.
//
// The paper's claim is that dedicated cores/nodes absorb I/O so the
// simulation never stalls.  Historically every "persisted" byte landed in
// fsim's in-memory store — overlap without a disk.  StorageBackend
// extracts the write contract so the same writers (core::StorePlugin,
// core/baseline_io, examples) can target either
//
//   * storage::SimBackend   — the filesystem simulator, unchanged
//     semantics: modelled durations, striping, MDS contention, in-memory
//     content retention; or
//   * storage::PosixBackend — real files through create/pwrite/fsync/
//     close, file-per-process and per-node aggregated layouts, the way
//     Damaris's default storage plugin emits per-node aggregated HDF5.
//
// Contract highlights (enforced by tests/storage_test.cpp on both
// backends):
//   * create() truncates an existing file and counts one create;
//   * write() appends, pwrite() is positional and zero-fills holes;
//   * write/pwrite after close return a Status error (kFailedPrecondition)
//     — never UB;
//   * closing a handle twice is a fatal invariant violation (crash), like
//     fsim's stale-handle check;
//   * read_file/list_files/file_size observe exactly the bytes written;
//   * PosixBackend publishes created files crash-consistently: bytes land
//     in a hidden temp, close() fsyncs and atomically renames it into
//     place, and a startup recovery scan quarantines torn temps — readers
//     never observe a partially written image.
//
// Whole images also have a second, schedulable entry point: plan_write()
// turns one image into a WritePlan — parts any thread may run in any
// order, plus an optional commit that runs once after every part
// succeeded.  The default plan is a single part calling write_image (sim,
// posix); ShardedBackend plans one part per chunk and commits by
// publishing the manifest.  WriteBehind schedules plans without knowing
// which backend made them; a synchronous caller runs one inline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace dedicore::storage {

/// Opaque per-backend file handle.  Ids are never reused within a backend
/// instance, so a closed handle stays invalid forever.
struct FileHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

/// FileSystemStats-equivalent counters every backend maintains.  The
/// conformance suite requires the countable fields (files_created, writes,
/// bytes_written) to be identical across backends for the same workload;
/// write_seconds is modelled time for SimBackend and wall time for
/// PosixBackend.
/// One independently runnable slice of an image write.  `run` writes it
/// (retry-safe: a failed part may be run again) and reports its stall in
/// `*seconds` when non-null; `bytes` is the slice's share of the image.
struct WritePart {
  std::uint64_t bytes = 0;
  std::function<Status(double* seconds)> run;
};

/// An image write cut into parts: every part may run on any thread in any
/// order, and `commit` (optional) runs once, after every part succeeded —
/// it is what makes the image visible when the parts alone do not.  A plan
/// owns the image, so it may run long after plan_write returned (the
/// backend must outlive it).  Always at least one part.
struct WritePlan {
  std::vector<WritePart> parts;
  std::function<Status()> commit;

  [[nodiscard]] std::uint64_t bytes() const noexcept;
  /// Runs the plan inline: parts in order until the first failure, then
  /// the commit.  Returns the first failing Status.
  Status run() const;
};

struct StorageStats {
  std::uint64_t files_created = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  double write_seconds = 0.0;
  /// Torn in-progress files found by PosixBackend's startup recovery scan
  /// and moved aside to `.quarantine/` (always 0 on SimBackend: simulated
  /// state does not survive a process, so there is nothing to recover).
  std::uint64_t files_quarantined = 0;
  /// Handles still open when the backend reclaimed them (destructor or an
  /// explicit reclaim_leaked_handles()).  A nonzero value is a caller bug
  /// — but the fds are closed, not leaked.
  std::uint64_t handles_reclaimed = 0;
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// "sim" or "posix".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Creates (or truncates) `path`, opening it for writing.  Parent
  /// "directories" are implied by the path ('/'-separated on both
  /// backends).  `stripe_count` is a placement hint: the simulator models
  /// it, POSIX ignores it.  kInvalidArgument for unusable paths (empty,
  /// absolute, or escaping the backend root), kIoError on syscall failure.
  virtual Status create(const std::string& path, FileHandle* out,
                        int stripe_count = 0) = 0;

  /// Opens an existing file for positional writes (collective I/O, shared
  /// headers).  kNotFound when absent.
  virtual Status open(const std::string& path, FileHandle* out) = 0;

  /// Appends `bytes` at the current end of file.  On success `*seconds`
  /// (when non-null) receives the time the caller stalled: modelled
  /// seconds on the simulator, wall seconds on POSIX.
  virtual Status write(FileHandle file, std::span<const std::byte> bytes,
                       double* seconds = nullptr) = 0;

  /// Positional write; regions past EOF are zero-filled (sparse).
  virtual Status pwrite(FileHandle file, std::uint64_t offset,
                        std::span<const std::byte> bytes,
                        double* seconds = nullptr) = 0;

  /// Flushes (PosixBackend: fsync) and invalidates the handle.  Closing a
  /// handle that was never issued or was already closed is a fatal error.
  virtual Status close(FileHandle file) = 0;

  // -- content inspection (test/analysis use; no modelled cost) -----------
  [[nodiscard]] virtual bool exists(const std::string& path) const = 0;
  [[nodiscard]] virtual std::optional<std::vector<std::byte>> read_file(
      const std::string& path) const = 0;
  [[nodiscard]] virtual std::uint64_t file_size(const std::string& path) const = 0;
  /// All file paths, '/'-separated and sorted.
  [[nodiscard]] virtual std::vector<std::string> list_files() const = 0;
  [[nodiscard]] virtual std::size_t file_count() const = 0;

  [[nodiscard]] virtual StorageStats stats() const = 0;

  /// Plans the write of a whole image, taking ownership of it.  Layout
  /// decisions (if any) are made here, at plan time, so they follow the
  /// order of plan_write calls however the parts are later scheduled.
  /// Default: one part that runs write_image.
  [[nodiscard]] virtual WritePlan plan_write(const std::string& path,
                                             std::vector<std::byte> image,
                                             int stripe_count = 0);
};

/// The h5lite builder's emit path: create + append + close in one step —
/// how StorePlugin and FilePerProcessWriter persist a finalized image.
/// Returns the first failing Status; `*seconds` (when non-null) receives
/// the stall of the write call on success.
Status write_image(StorageBackend& backend, const std::string& path,
                   std::span<const std::byte> image, int stripe_count = 0,
                   double* seconds = nullptr);

/// The path rule every backend enforces identically (so a configuration
/// that runs green on the simulator cannot start failing when switched to
/// posix): non-empty, relative, and no '..' component.  kInvalidArgument
/// otherwise.
Status validate_backend_path(const std::string& path);

}  // namespace dedicore::storage
