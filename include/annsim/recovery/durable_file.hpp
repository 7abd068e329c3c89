#pragma once
/// \file durable_file.hpp
/// \brief The recovery plane's only way to put bytes on disk.
///
/// Every durable artifact — checkpoint payloads, manifests, write-ahead log
/// segments — goes through this wrapper, which owns the three primitives a
/// crash-consistent store needs and nothing else:
///
///  * append(): buffered writes to an append-only file descriptor,
///  * sync(): flush + fsync, the moment bytes become crash-durable (an
///    acked write may only be acked after its log frames synced),
///  * write_atomic(): whole-file replace via hidden-sibling + fsync +
///    rename, so readers observe either the old bytes or the new bytes,
///    never a prefix.
///
/// read_all() is the one whole-file reader beside them (checkpoint, WAL and
/// engine-manifest files).
///
/// A repo lint rule (`raw-write-in-recovery`) bans raw std::ofstream/fopen
/// in src/recovery outside this file: a plain ofstream write is buffered in
/// user space and torn on crash, which is exactly the failure class the
/// recovery plane exists to rule out. POSIX descriptors are used directly —
/// the simulated cluster runs on Linux, and fsync semantics are the point.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace annsim::recovery {

/// Append-only durable file handle. Move-only; close() (or destruction)
/// releases the descriptor without syncing — callers own the sync points.
class DurableFile {
 public:
  DurableFile() = default;
  ~DurableFile();

  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;
  DurableFile(DurableFile&& other) noexcept;
  DurableFile& operator=(DurableFile&& other) noexcept;

  /// Open `path` for appending, creating it (and nothing else — parent
  /// directories are the caller's job) when absent.
  static DurableFile open_append(const std::string& path);

  /// Append bytes at the end of the file. Throws annsim::Error on a short
  /// write (disk full) — durability code must never silently lose a suffix.
  void append(std::span<const std::byte> bytes);

  /// Make everything appended so far crash-durable (fsync). The WAL's group
  /// commit batches many append() calls behind one sync() per dispatch round.
  void sync();

  /// Current file size in bytes (appends included).
  [[nodiscard]] std::uint64_t size() const;

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  void close() noexcept;

  /// Atomic whole-file replace: write a hidden `.name.tmp` sibling, fsync
  /// it, rename over `path`, then fsync the parent directory so the rename
  /// itself survives a crash. Readers of `path` never observe a torn file.
  static void write_atomic(const std::string& path,
                           std::span<const std::byte> bytes);

  /// fsync a directory so a just-created/renamed/removed entry is durable.
  static void sync_dir(const std::string& dir);

  /// Read a whole file. Throws annsim::Error when it cannot be opened or
  /// read in full.
  [[nodiscard]] static std::vector<std::byte> read_all(const std::string& path);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace annsim::recovery
