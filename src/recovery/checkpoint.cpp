#include "annsim/recovery/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"
#include "annsim/recovery/durable_file.hpp"

namespace fs = std::filesystem;

namespace annsim::recovery {

namespace {

constexpr std::uint32_t kManifestMagic = 0x414E4350;  // "ANCP"
constexpr std::uint32_t kManifestVersion = 1;            ///< monolithic layout
constexpr std::uint32_t kManifestVersionSegmented = 2;   ///< incremental layout
constexpr std::uint32_t kManifestVersionWal = 3;  ///< incremental + watermark
constexpr const char* kManifestFile = "manifest.bin";
constexpr const char* kDataFile = "data.bin";
constexpr const char* kIndexFile = "index.bin";

std::string partition_dirname(std::uint32_t partition) {
  return "partition_" + std::to_string(partition);
}

std::string segment_filename(std::uint64_t seg_id) {
  return "seg_" + std::to_string(seg_id) + ".bin";
}

std::string delta_filename(std::uint64_t generation) {
  return "delta_" + std::to_string(generation) + ".bin";
}

/// Create-and-fill a fresh file (callers stage into paths that do not exist
/// yet). Routed through DurableFile so the bytes are fsynced before the
/// enclosing staging-rename / manifest-rename commit point.
void write_file(const fs::path& path, std::span<const std::byte> bytes) {
  ANNSIM_CHECK_MSG(!fs::exists(path),
                   "refusing to overwrite " << path.string()
                                            << " (stage into fresh files)");
  DurableFile f = DurableFile::open_append(path.string());
  f.append(bytes);
  f.sync();
}

/// One payload file's entry in the manifest.
struct FileRecord {
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

}  // namespace

std::uint64_t checksum64(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const std::byte b : bytes) {
    h ^= std::uint64_t(std::to_integer<std::uint8_t>(b));
    h *= 0x00000100000001b3ULL;  // FNV prime
  }
  return h;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  ANNSIM_CHECK_MSG(!dir_.empty(), "checkpoint dir cannot be empty");
  fs::create_directories(dir_);
  // Sweep debris from a crash mid-commit: hidden staging directories (v1
  // saves) and hidden `.tmp` siblings (segmented saves). Nothing hidden is
  // ever part of a committed snapshot — the rename out of hiding *is* the
  // commit — so removal is always safe, and leaving them would accumulate
  // forever and shadow post-commit GC.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.starts_with(".") &&
        name.ends_with(".staging")) {
      fs::remove_all(entry.path());
      continue;
    }
    if (!entry.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(entry.path())) {
      const std::string fname = file.path().filename().string();
      if (file.is_regular_file() && fname.starts_with(".") &&
          fname.ends_with(".tmp")) {
        fs::remove(file.path());
      }
    }
  }
}

CheckpointStore::SaveReport CheckpointStore::save(
    const CheckpointMeta& meta, std::span<const std::byte> data_bytes,
    std::span<const std::byte> index_bytes) const {
  BinaryWriter manifest;
  manifest.write(kManifestMagic);
  manifest.write(kManifestVersion);
  manifest.write(meta.partition);
  manifest.write(meta.dim);
  manifest.write(meta.count);
  manifest.write(meta.index_kind);
  manifest.write(FileRecord{data_bytes.size(), checksum64(data_bytes)});
  manifest.write(FileRecord{index_bytes.size(), checksum64(index_bytes)});

  // Stage everything in a hidden sibling directory, then rename into place:
  // readers either see the old committed snapshot or the complete new one.
  const fs::path root(dir_);
  std::string staging_name = ".";
  staging_name += partition_dirname(meta.partition);
  staging_name += ".staging";
  const fs::path staging = root / staging_name;
  const fs::path target = root / partition_dirname(meta.partition);
  fs::remove_all(staging);
  fs::create_directories(staging);
  write_file(staging / kDataFile, data_bytes);
  write_file(staging / kIndexFile, index_bytes);
  write_file(staging / kManifestFile, manifest.bytes());
  fs::remove_all(target);
  fs::rename(staging, target);
  // The directory-entry rename is the commit; fsync the root so it sticks.
  DurableFile::sync_dir(dir_);
  SaveReport report;
  report.manifest_checksum = checksum64(manifest.bytes());
  return report;
}

namespace {

/// Atomic single-file replace: write a hidden sibling, rename over `path`.
void write_file_atomic(const fs::path& path, std::span<const std::byte> bytes) {
  DurableFile::write_atomic(path.string(), bytes);
}

}  // namespace

CheckpointStore::SaveReport CheckpointStore::save_segmented(
    const CheckpointMeta& meta, std::span<const std::byte> header,
    std::span<const std::pair<std::uint64_t, std::vector<std::byte>>> segments,
    std::span<const std::byte> delta, std::uint64_t wal_watermark) const {
  const fs::path pdir = fs::path(dir_) / partition_dirname(meta.partition);
  fs::create_directories(pdir);

  // The delta rewrites every save; bump its generation past whatever the
  // committed manifest references so the old generation's bytes stay intact
  // until the new manifest rename commits. Both segmented layouts (v2 and
  // the v3 watermark extension) are accepted here.
  std::uint64_t generation = 0;
  if (fs::exists(pdir / kManifestFile)) {
    const auto old_bytes =
        DurableFile::read_all((pdir / kManifestFile).string());
    BinaryReader old(old_bytes);
    if (old.remaining() >= 2 * sizeof(std::uint32_t) &&
        old.read<std::uint32_t>() == kManifestMagic) {
      const auto old_version = old.read<std::uint32_t>();
      if (old_version == kManifestVersionSegmented ||
          old_version == kManifestVersionWal) {
        old.read<std::uint32_t>();  // partition
        old.read<std::uint64_t>();  // dim
        old.read<std::uint64_t>();  // count
        old.read<std::uint8_t>();   // index_kind
        if (old_version == kManifestVersionWal) {
          old.read<std::uint64_t>();  // wal watermark
        }
        (void)old.read_vector<std::byte>();  // header blob
        generation = old.read<std::uint64_t>() + 1;
      }
    }
  }

  SaveReport report;
  for (const auto& [seg_id, blob] : segments) {
    const fs::path seg_path = pdir / segment_filename(seg_id);
    // Segment ids are never reused, so an existing file already holds these
    // exact bytes — the incremental win. (Integrity is still verified at
    // load time against the manifest checksum.)
    if (fs::exists(seg_path)) {
      ++report.segments_skipped;
      continue;
    }
    write_file_atomic(seg_path, blob);
    ++report.segments_written;
  }
  write_file_atomic(pdir / delta_filename(generation), delta);

  BinaryWriter manifest;
  manifest.write(kManifestMagic);
  manifest.write(kManifestVersionWal);
  manifest.write(meta.partition);
  manifest.write(meta.dim);
  manifest.write(meta.count);
  manifest.write(meta.index_kind);
  manifest.write(wal_watermark);
  manifest.write_vector(std::vector<std::byte>(header.begin(), header.end()));
  manifest.write(generation);
  manifest.write(FileRecord{delta.size(), checksum64(delta)});
  manifest.write(std::uint64_t(segments.size()));
  for (const auto& [seg_id, blob] : segments) {
    manifest.write(seg_id);
    manifest.write(FileRecord{blob.size(), checksum64(blob)});
  }
  // Commit point: readers see the old manifest (old generation, old segment
  // set) until this rename lands.
  write_file_atomic(pdir / kManifestFile, manifest.bytes());
  report.manifest_checksum = checksum64(manifest.bytes());

  // Post-commit GC: drop delta generations other than the committed one and
  // segment files the manifest no longer references (merged away by
  // compaction). A crash here only leaves harmless extra files. Also clear
  // any v1 payload left behind by a monolithic save of this partition.
  for (const auto& entry : fs::directory_iterator(pdir)) {
    const std::string name = entry.path().filename().string();
    if (name == kManifestFile) continue;
    bool keep = false;
    if (name == delta_filename(generation)) keep = true;
    for (const auto& [seg_id, blob] : segments) {
      if (name == segment_filename(seg_id)) keep = true;
    }
    if (!keep) fs::remove(entry.path());
  }
  return report;
}

bool CheckpointStore::has(std::uint32_t partition) const {
  return fs::exists(fs::path(dir_) / partition_dirname(partition) / kManifestFile);
}

CheckpointStore::LoadedPartition CheckpointStore::load(
    std::uint32_t partition) const {
  const fs::path pdir = fs::path(dir_) / partition_dirname(partition);
  ANNSIM_CHECK_MSG(fs::exists(pdir / kManifestFile),
                   "checkpoint manifest missing for partition "
                       << partition << " under " << dir_);

  const auto manifest_bytes =
      DurableFile::read_all((pdir / kManifestFile).string());
  BinaryReader manifest(manifest_bytes);
  LoadedPartition out;
  out.manifest_checksum = checksum64(manifest_bytes);
  ANNSIM_CHECK_MSG(manifest.remaining() >= sizeof(kManifestMagic) &&
                       manifest.read<std::uint32_t>() == kManifestMagic,
                   "bad checkpoint manifest magic for partition " << partition);
  const auto version = manifest.read<std::uint32_t>();
  ANNSIM_CHECK_MSG(version == kManifestVersion ||
                       version == kManifestVersionSegmented ||
                       version == kManifestVersionWal,
                   "unsupported checkpoint manifest version " << version);

  out.meta.partition = manifest.read<std::uint32_t>();
  out.meta.dim = manifest.read<std::uint64_t>();
  out.meta.count = manifest.read<std::uint64_t>();
  out.meta.index_kind = manifest.read<std::uint8_t>();
  if (version == kManifestVersionWal) {
    out.wal_watermark = manifest.read<std::uint64_t>();
  }
  ANNSIM_CHECK_MSG(out.meta.partition == partition,
                   "checkpoint manifest names partition "
                       << out.meta.partition << " but was loaded as "
                       << partition);

  const auto verify = [&](const std::string& name, const FileRecord& rec) {
    const fs::path p = pdir / name;
    ANNSIM_CHECK_MSG(fs::exists(p), "checkpoint file " << name
                                                       << " missing (truncated "
                                                          "checkpoint) for "
                                                          "partition "
                                                       << partition);
    auto bytes = DurableFile::read_all(p.string());
    ANNSIM_CHECK_MSG(bytes.size() == rec.size,
                     "checkpoint file " << name << " truncated for partition "
                                        << partition << ": expected "
                                        << rec.size << " bytes, found "
                                        << bytes.size());
    ANNSIM_CHECK_MSG(checksum64(bytes) == rec.checksum,
                     "checkpoint checksum mismatch in "
                         << name << " for partition " << partition);
    return bytes;
  };

  if (version == kManifestVersion) {
    const auto data_rec = manifest.read<FileRecord>();
    const auto index_rec = manifest.read<FileRecord>();
    out.data_bytes = verify(kDataFile, data_rec);
    out.index_bytes = verify(kIndexFile, index_rec);
    return out;
  }

  // Segmented manifest: verify each part, then reassemble the byte-identical
  // SegmentedIndex::to_bytes() image (header | n_segments | id+blob... |
  // delta). data_bytes stays empty — the image owns its vectors.
  const auto header = manifest.read_vector<std::byte>();
  const auto generation = manifest.read<std::uint64_t>();
  const auto delta_rec = manifest.read<FileRecord>();
  const auto n_segments = manifest.read<std::uint64_t>();

  BinaryWriter image;
  image.write_vector(header);
  image.write(n_segments);
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const auto seg_id = manifest.read<std::uint64_t>();
    const auto seg_rec = manifest.read<FileRecord>();
    image.write(seg_id);
    image.write_vector(verify(segment_filename(seg_id), seg_rec));
  }
  image.write_vector(verify(delta_filename(generation), delta_rec));
  out.index_bytes = image.take();
  return out;
}

std::vector<std::uint32_t> CheckpointStore::partitions() const {
  std::vector<std::uint32_t> out;
  if (!fs::exists(dir_)) return out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    constexpr const char* kPrefix = "partition_";
    if (name.rfind(kPrefix, 0) != 0) continue;
    std::uint32_t pid = 0;
    if (std::sscanf(name.c_str() + 10, "%u", &pid) != 1) continue;
    if (has(pid)) out.push_back(pid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace annsim::recovery
