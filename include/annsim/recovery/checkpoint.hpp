#pragma once
/// \file checkpoint.hpp
/// \brief Durable per-partition snapshots for the self-healing engine.
///
/// LANNS-style deployments assume a segment can be *reloaded* from durable
/// storage instead of rebuilt from raw vectors. The CheckpointStore gives the
/// engine exactly that: one directory per partition holding the packed
/// dataset bytes, the frozen local-index bytes (the wire format replicas
/// already ship over kTagReplica), and a manifest with per-file sizes and
/// checksums.
///
/// Durability contract:
///  * save() is atomic: everything is written into a hidden staging directory
///    and renamed into place in one step, so a crash mid-save leaves either
///    the previous checkpoint or none — never a half-written one.
///  * load() verifies the manifest magic/version, the recorded file sizes,
///    and an FNV-1a checksum of every file. A truncated file, a flipped
///    byte, or a missing manifest each fail with a specific error; a
///    corrupted checkpoint can never deserialize into a silently wrong
///    index.
///
/// Segmented partitions (live mutability) checkpoint *incrementally* through
/// save_segmented(): each frozen segment persists once as an immutable
/// `seg_<id>.bin` (segment ids are never reused, so id equality implies byte
/// equality and the file is skipped when already present), while the small
/// mutable delta rewrites every round as a generation-versioned
/// `delta_<g>.bin`. The manifest rename is the commit point: a crash between
/// payload writes and the manifest rename leaves the previous manifest
/// referencing the previous generation — still fully intact. Stale delta
/// generations and segments merged away by compaction are garbage-collected
/// after the commit.
///
/// Quantized partitions (quantize_frozen) ride the same machinery unchanged:
/// a quantized segment's blob is its SQ8 codes + codebook + graph + cached
/// float rows (~4x smaller than the float form), the header is version 2,
/// and the `seg_<id>.bin` immutability contract holds exactly as above — a
/// segment is quantized at freeze time and never rewritten after.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace annsim::recovery {

/// What a checkpointed partition is, independent of its payload bytes.
struct CheckpointMeta {
  std::uint32_t partition = 0;  ///< PartitionId this snapshot belongs to
  std::uint64_t dim = 0;        ///< vector dimensionality
  std::uint64_t count = 0;      ///< number of vectors in the partition
  std::uint8_t index_kind = 0;  ///< LocalIndexKind the index bytes decode as
};

/// FNV-1a 64-bit over a byte span — dependency-free, stable across platforms.
[[nodiscard]] std::uint64_t checksum64(std::span<const std::byte> bytes) noexcept;

/// Filesystem-backed store of partition snapshots under one root directory.
/// Layout: `<dir>/partition_<pid>/{manifest.bin, data.bin, index.bin}`.
class CheckpointStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`, sweeping any
  /// hidden staging directories / `.tmp` siblings a crash mid-commit left
  /// behind — they were never part of a committed snapshot, and letting them
  /// accumulate would shadow GC forever.
  explicit CheckpointStore(std::string dir);

  /// What a save committed. The point of the segmented manifest is that
  /// `segments_skipped` dominates once the index stabilizes.
  struct SaveReport {
    std::size_t segments_written = 0;
    std::size_t segments_skipped = 0;  ///< already durable; not re-written
    /// checksum64 of the committed manifest file: names this exact snapshot
    /// (LoadedPartition::manifest_checksum reads it back).
    std::uint64_t manifest_checksum = 0;
  };

  /// Atomically write (or replace) the snapshot of one partition.
  SaveReport save(const CheckpointMeta& meta,
                  std::span<const std::byte> data_bytes,
                  std::span<const std::byte> index_bytes) const;

  /// Incremental snapshot of a segmented partition from its
  /// SegmentedIndex::snapshot_parts() pieces: immutable `seg_<id>.bin` files
  /// (skipped when already present), a fresh `delta_<g>.bin` generation, and
  /// an atomically renamed manifest as the commit. load() reassembles the
  /// byte-identical full image. Mixing save() and save_segmented() on the
  /// same partition is fine — each commit fully replaces the manifest.
  ///
  /// `wal_watermark` is the highest write-ahead-log LSN whose effects this
  /// snapshot is guaranteed to contain. Recovery replays only WAL records
  /// with lsn > watermark, and the engine GCs log files fully covered by it
  /// once the manifest rename commits.
  SaveReport save_segmented(
      const CheckpointMeta& meta, std::span<const std::byte> header,
      std::span<const std::pair<std::uint64_t, std::vector<std::byte>>>
          segments,
      std::span<const std::byte> delta, std::uint64_t wal_watermark = 0) const;

  /// Does a committed snapshot exist for `partition`?
  [[nodiscard]] bool has(std::uint32_t partition) const;

  struct LoadedPartition {
    CheckpointMeta meta;
    /// pack_dataset() wire bytes; empty for segmented snapshots (the index
    /// image owns its vectors — unpack_dataset({}) yields the empty husk).
    std::vector<std::byte> data_bytes;
    std::vector<std::byte> index_bytes;  ///< LocalIndex::to_bytes() wire bytes
    /// Highest WAL LSN already reflected in this snapshot (0 when the
    /// snapshot predates the WAL or was written without one).
    std::uint64_t wal_watermark = 0;
    std::uint64_t manifest_checksum = 0;  ///< checksum64 of manifest.bin
  };

  /// Load and verify one partition; throws annsim::Error naming the failure
  /// (missing manifest / truncated file / checksum mismatch). Transparent
  /// across formats: a segmented manifest reassembles the parts into the
  /// exact bytes SegmentedIndex::to_bytes() would have produced.
  [[nodiscard]] LoadedPartition load(std::uint32_t partition) const;

  /// Partitions with a committed snapshot, ascending.
  [[nodiscard]] std::vector<std::uint32_t> partitions() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  std::string dir_;
};

}  // namespace annsim::recovery
