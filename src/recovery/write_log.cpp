#include "annsim/recovery/write_log.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "annsim/common/error.hpp"
#include "annsim/common/serialize.hpp"

namespace fs = std::filesystem;

namespace annsim::recovery {

namespace {

constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);
constexpr std::size_t kFrameHeaderBytes = 2 * sizeof(std::uint32_t);
// A frame payload is lsn + type + partition + id + n_floats + floats; cap
// the declared length so a corrupted length field cannot drive a huge
// allocation during the scan.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

/// Result of validating one log file: the records that check out, the byte
/// offset of the first invalid frame (== file size when the whole file is
/// valid), and whether even the header was usable.
struct ScanResult {
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;
  bool header_ok = false;
};

ScanResult scan_file(const std::string& path) {
  const std::vector<std::byte> bytes = DurableFile::read_all(path);
  ScanResult out;
  if (bytes.size() < kHeaderBytes) return out;
  {
    BinaryReader r(bytes);
    if (r.read<std::uint32_t>() != kWalMagic ||
        r.read<std::uint32_t>() != kWalVersion) {
      return out;
    }
  }
  out.header_ok = true;
  out.valid_bytes = kHeaderBytes;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    std::uint32_t crc = 0;
    std::uint32_t len = 0;
    std::memcpy(&crc, bytes.data() + pos, sizeof(crc));
    std::memcpy(&len, bytes.data() + pos + sizeof(crc), sizeof(len));
    if (len > kMaxPayloadBytes ||
        pos + kFrameHeaderBytes + len > bytes.size()) {
      break;  // short/torn tail
    }
    const std::span<const std::byte> payload(
        bytes.data() + pos + kFrameHeaderBytes, len);
    if (crc32c(payload) != crc) break;  // bit-flipped or zero-filled tail
    WalRecord rec;
    bool parsed = true;
    try {
      BinaryReader r(payload);
      rec.lsn = r.read<std::uint64_t>();
      rec.type = WalRecordType{r.read<std::uint8_t>()};
      rec.partition = r.read<PartitionId>();
      rec.id = r.read<GlobalId>();
      const auto n_floats = r.read<std::uint32_t>();
      rec.vec.resize(n_floats);
      r.read_into(std::span<float>(rec.vec));
      parsed = r.exhausted() &&
               (rec.type == WalRecordType::kInsert ||
                rec.type == WalRecordType::kDelete ||
                rec.type == WalRecordType::kCompactMark);
    } catch (const Error&) {
      parsed = false;
    }
    if (!parsed) break;  // CRC collided with garbage — still a dead tail
    out.records.push_back(std::move(rec));
    pos += kFrameHeaderBytes + len;
    out.valid_bytes = pos;
  }
  return out;
}

/// First LSN encoded in a `wal_<first_lsn>.log` filename, or nullopt for
/// anything else living in the directory.
std::optional<std::uint64_t> file_first_lsn(const fs::path& p) {
  const std::string name = p.filename().string();
  unsigned long long lsn = 0;
  if (std::sscanf(name.c_str(), "wal_%llu.log", &lsn) != 1) return std::nullopt;
  return std::uint64_t(lsn);
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ std::uint32_t(b)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

WriteLog::WriteLog(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  ANNSIM_CHECK_MSG(!dir_.empty(), "WriteLog needs a directory");
  ANNSIM_CHECK_MSG(options_.segment_bytes >= 4096,
                   "wal segment_bytes must be at least 4 KiB");
  fs::create_directories(dir_);
  std::lock_guard<std::mutex> lock(mu_);
  recover_locked();
}

std::vector<std::string> WriteLog::sorted_log_files() const {
  std::vector<std::pair<std::uint64_t, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (const auto lsn = file_first_lsn(entry.path())) {
      files.emplace_back(*lsn, entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  out.reserve(files.size());
  for (auto& [lsn, path] : files) out.push_back(std::move(path));
  return out;
}

void WriteLog::open_active_for(std::uint64_t first_lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "wal_%020llu.log",
                static_cast<unsigned long long>(first_lsn));
  const std::string path = (fs::path(dir_) / name).string();
  active_ = DurableFile::open_append(path);
  if (active_.size() == 0) {
    BinaryWriter w;
    w.write(kWalMagic);
    w.write(kWalVersion);
    active_.append(w.bytes());
    // Make the directory entry durable now; the header bytes ride the first
    // commit's fsync.
    DurableFile::sync_dir(dir_);
  }
}

void WriteLog::buffer_frame(const WalRecord& rec) {
  BinaryWriter payload;
  payload.write(rec.lsn);
  payload.write(std::uint8_t(rec.type));
  payload.write(rec.partition);
  payload.write(rec.id);
  payload.write(std::uint32_t(rec.vec.size()));
  for (const float v : rec.vec) payload.write(v);
  BinaryWriter frame;
  frame.write(crc32c(payload.bytes()));
  frame.write(std::uint32_t(payload.size()));
  PendingFrame pf;
  pf.lsn = rec.lsn;
  pf.bytes = frame.take();
  const auto& body = payload.bytes();
  pf.bytes.insert(pf.bytes.end(), body.begin(), body.end());
  pending_.push_back(std::move(pf));
}

void WriteLog::append_insert(std::uint64_t lsn, PartitionId partition,
                             GlobalId id, std::span<const float> vec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  WalRecord rec;
  rec.lsn = lsn;
  rec.type = WalRecordType::kInsert;
  rec.partition = partition;
  rec.id = id;
  rec.vec.assign(vec.begin(), vec.end());
  buffer_frame(rec);
}

void WriteLog::append_delete(std::uint64_t lsn, PartitionId partition,
                             GlobalId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  WalRecord rec;
  rec.lsn = lsn;
  rec.type = WalRecordType::kDelete;
  rec.partition = partition;
  rec.id = id;
  buffer_frame(rec);
}

void WriteLog::append_compact_mark(std::uint64_t lsn, PartitionId partition) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  WalRecord rec;
  rec.lsn = lsn;
  rec.type = WalRecordType::kCompactMark;
  rec.partition = partition;
  rec.id = kInvalidGlobalId;
  buffer_frame(rec);
}

bool WriteLog::commit(const FaultFn& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    pending_.clear();
    return false;
  }
  if (pending_.empty()) return true;
  if (!active_.is_open()) open_active_for(pending_.front().lsn);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PendingFrame& pf = pending_[i];
    const std::optional<mpi::DiskFaultKind> kind =
        fault ? fault(pf.lsn) : std::nullopt;
    if (!kind) {
      active_.append(pf.bytes);
      if (!options_.group_commit) active_.sync();
      last_synced_lsn_ = pf.lsn;
      continue;
    }
    // A disk fault fired on this frame. Put the faulted bytes on disk (so
    // recovery sees exactly the corruption the rule describes), sync them
    // deterministically, and die — nothing from this frame on is acked.
    switch (*kind) {
      case mpi::DiskFaultKind::kCrashAtLsn:
        break;  // the process died before the frame reached write()
      case mpi::DiskFaultKind::kShortWrite: {
        const std::size_t cut = pf.bytes.size() / 2;
        active_.append(std::span<const std::byte>(pf.bytes.data(), cut));
        break;
      }
      case mpi::DiskFaultKind::kTornWrite: {
        // Frame-sized region allocated but the tail half never made it:
        // full length on disk, second half of the payload zero-filled.
        std::vector<std::byte> torn = pf.bytes;
        std::fill(torn.begin() + std::ptrdiff_t(torn.size() / 2), torn.end(),
                  std::byte{0});
        active_.append(torn);
        break;
      }
      case mpi::DiskFaultKind::kFlipByte: {
        std::vector<std::byte> flipped = pf.bytes;
        flipped[flipped.size() / 2] ^= std::byte{0x01};
        active_.append(flipped);
        break;
      }
    }
    active_.sync();
    crashed_ = true;
    pending_.clear();
    return false;
  }
  if (options_.group_commit) active_.sync();
  pending_.clear();
  if (active_.size() >= options_.segment_bytes) {
    active_.close();  // rotate: the next commit opens wal_<next_lsn>.log
  }
  return true;
}

std::uint64_t WriteLog::recover() {
  std::lock_guard<std::mutex> lock(mu_);
  return recover_locked();
}

std::uint64_t WriteLog::recover_locked() {
  active_.close();
  pending_.clear();
  std::uint64_t truncated = 0;
  last_synced_lsn_ = 0;
  std::string last_file;
  std::uint64_t last_valid = 0;
  for (const std::string& path : sorted_log_files()) {
    const ScanResult scan = scan_file(path);
    const std::uint64_t total = fs::file_size(path);
    if (!scan.header_ok) {
      // Unusable header: the file never became a log. Drop it whole.
      truncated += total;
      fs::remove(path);
      DurableFile::sync_dir(dir_);
      continue;
    }
    if (scan.valid_bytes < total) {
      truncated += total - scan.valid_bytes;
      fs::resize_file(path, scan.valid_bytes);
      // resize_file only shrinks the inode; make the new length durable.
      DurableFile::open_append(path).sync();
    }
    for (const WalRecord& rec : scan.records) {
      last_synced_lsn_ = std::max(last_synced_lsn_, rec.lsn);
    }
    last_file = path;
    last_valid = scan.valid_bytes;
  }
  truncated_tail_bytes_ += truncated;
  crashed_ = false;
  // Keep appending to the last file when it still has room.
  if (!last_file.empty() && last_valid < options_.segment_bytes) {
    active_ = DurableFile::open_append(last_file);
  }
  return truncated;
}

std::vector<WalRecord> WriteLog::read_tail(std::uint64_t after_lsn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalRecord> out;
  for (const std::string& path : sorted_log_files()) {
    ScanResult scan = scan_file(path);
    for (WalRecord& rec : scan.records) {
      if (rec.lsn > after_lsn) out.push_back(std::move(rec));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WalRecord& a, const WalRecord& b) { return a.lsn < b.lsn; });
  return out;
}

std::size_t WriteLog::gc(std::uint64_t watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::string> files = sorted_log_files();
  std::size_t removed = 0;
  // The last file is the active tail — never GC'd, even when fully covered,
  // so the append cursor stays valid.
  for (std::size_t i = 0; i + 1 < files.size(); ++i) {
    const ScanResult scan = scan_file(files[i]);
    std::uint64_t last_lsn = 0;
    for (const WalRecord& rec : scan.records) {
      last_lsn = std::max(last_lsn, rec.lsn);
    }
    if (last_lsn <= watermark) {
      fs::remove(files[i]);
      ++removed;
    }
  }
  if (removed > 0) DurableFile::sync_dir(dir_);
  return removed;
}

std::uint64_t WriteLog::last_synced_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_synced_lsn_;
}

std::uint64_t WriteLog::truncated_tail_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_tail_bytes_;
}

bool WriteLog::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

}  // namespace annsim::recovery
