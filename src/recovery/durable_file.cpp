#include "annsim/recovery/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "annsim/common/error.hpp"

namespace fs = std::filesystem;

namespace annsim::recovery {

DurableFile::~DurableFile() { close(); }

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {}

DurableFile& DurableFile::operator=(DurableFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
  }
  return *this;
}

DurableFile DurableFile::open_append(const std::string& path) {
  DurableFile f;
  f.fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  ANNSIM_CHECK_MSG(f.fd_ >= 0, "cannot open " << path << " for appending: "
                                              << std::strerror(errno));
  f.path_ = path;
  return f;
}

void DurableFile::append(std::span<const std::byte> bytes) {
  ANNSIM_CHECK_MSG(is_open(), "append on a closed DurableFile");
  const char* p = reinterpret_cast<const char*>(bytes.data());
  std::size_t left = bytes.size();
  while (left > 0) {
    const ::ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    ANNSIM_CHECK_MSG(n > 0, "short write to " << path_ << ": "
                                              << std::strerror(errno));
    p += n;
    left -= std::size_t(n);
  }
}

void DurableFile::sync() {
  ANNSIM_CHECK_MSG(is_open(), "sync on a closed DurableFile");
  ANNSIM_CHECK_MSG(::fsync(fd_) == 0,
                   "fsync failed on " << path_ << ": " << std::strerror(errno));
}

std::uint64_t DurableFile::size() const {
  ANNSIM_CHECK_MSG(is_open(), "size on a closed DurableFile");
  struct ::stat st{};
  ANNSIM_CHECK_MSG(::fstat(fd_, &st) == 0,
                   "fstat failed on " << path_ << ": " << std::strerror(errno));
  return std::uint64_t(st.st_size);
}

void DurableFile::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void DurableFile::write_atomic(const std::string& path,
                               std::span<const std::byte> bytes) {
  const fs::path target(path);
  std::string tmp_name = ".";
  tmp_name += target.filename().string();
  tmp_name += ".tmp";
  const fs::path tmp = target.parent_path() / tmp_name;
  {
    // O_TRUNC, not append: the tmp sibling always starts from scratch.
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    ANNSIM_CHECK_MSG(fd >= 0, "cannot open " << tmp.string()
                                             << " for writing: "
                                             << std::strerror(errno));
    DurableFile f;
    f.fd_ = fd;
    f.path_ = tmp.string();
    f.append(bytes);
    f.sync();
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  ANNSIM_CHECK_MSG(!ec, "rename " << tmp.string() << " -> " << path << ": "
                                  << ec.message());
  // The rename is only durable once the directory entry is synced.
  sync_dir(target.parent_path().string());
}

void DurableFile::sync_dir(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  ANNSIM_CHECK_MSG(fd >= 0, "cannot open directory " << dir << " for fsync: "
                                                     << std::strerror(errno));
  const int rc = ::fsync(fd);
  ::close(fd);
  ANNSIM_CHECK_MSG(rc == 0,
                   "fsync failed on directory " << dir << ": "
                                                << std::strerror(errno));
}

std::vector<std::byte> DurableFile::read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ANNSIM_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  const std::streamsize n = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(n));
  if (n > 0) in.read(reinterpret_cast<char*>(bytes.data()), n);
  ANNSIM_CHECK_MSG(in.good(), "short read from " << path);
  return bytes;
}

}  // namespace annsim::recovery
