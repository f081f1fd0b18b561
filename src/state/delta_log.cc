#include "state/delta_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>

#include "state/serde.h"

namespace scotty {
namespace state {

namespace {

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

void FsyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

std::string DeltaLogPath(const std::string& prefix, uint64_t base_index) {
  return prefix + "-" + std::to_string(base_index) + ".dlog";
}

std::string DeltaLogPathForSnapshot(const std::string& snap_path) {
  constexpr std::string_view kSnap = ".snap";
  if (snap_path.size() <= kSnap.size() ||
      snap_path.compare(snap_path.size() - kSnap.size(), kSnap.size(),
                        kSnap) != 0) {
    return "";
  }
  return snap_path.substr(0, snap_path.size() - kSnap.size()) + ".dlog";
}

bool DeltaLogWriter::Open(const std::string& path, uint64_t base_index) {
  Close();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  Writer header;
  for (char c : kDeltaLogMagic) header.U8(static_cast<uint8_t>(c));
  Writer body;
  body.U32(kDeltaLogFormatVersion);
  body.U64(base_index);
  const std::vector<uint8_t>& b = body.bytes();
  for (uint8_t byte : b) header.U8(byte);
  header.U64(Fnv1a64(b.data(), b.size()));

  const std::vector<uint8_t>& h = header.bytes();
  if (!WriteAll(fd, h.data(), h.size()) || ::fsync(fd) != 0) {
    ::close(fd);
    std::remove(path.c_str());
    return false;
  }
  // Make the (empty) segment itself durable before any record references
  // it from recovery's point of view.
  FsyncDirOf(path);
  fd_ = fd;
  base_index_ = base_index;
  path_ = path;
  return true;
}

bool DeltaLogWriter::Append(const CheckpointMetadata& meta,
                            const std::string& operator_name,
                            const std::vector<uint8_t>& delta_state) {
  if (fd_ < 0) return false;
  const std::vector<uint8_t> container =
      BuildSnapshot(meta, operator_name, delta_state);
  Writer frame;
  frame.U32(kDeltaRecordMagic);
  frame.U64(container.size());
  const std::vector<uint8_t>& f = frame.bytes();
  if (!WriteAll(fd_, f.data(), f.size()) ||
      !WriteAll(fd_, container.data(), container.size())) {
    return false;
  }
  return true;
}

bool DeltaLogWriter::Sync() {
  if (fd_ < 0) return false;
  return ::fsync(fd_) == 0;
}

void DeltaLogWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

bool ReadDeltaLog(const std::string& path, DeltaLogContents* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamsize size = in.tellg();
  if (size < 0) return false;
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) return false;

  Reader r(bytes);
  char magic[8];
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (!r.ok() || std::memcmp(magic, kDeltaLogMagic, 8) != 0) return false;
  const uint32_t version = r.U32();
  const uint64_t base_index = r.U64();
  const uint64_t header_checksum = r.U64();
  if (!r.ok() || version != kDeltaLogFormatVersion) return false;
  {
    Writer body;
    body.U32(version);
    body.U64(base_index);
    const std::vector<uint8_t>& b = body.bytes();
    if (Fnv1a64(b.data(), b.size()) != header_checksum) return false;
  }

  DeltaLogContents contents;
  contents.base_index = base_index;
  // Records: stop at the first torn/corrupt/out-of-epoch one; everything
  // before it is a consistent replayable prefix.
  while (r.remaining() > 0) {
    const uint32_t rec_magic = r.U32();
    const uint64_t len = r.U64();
    if (!r.ok() || rec_magic != kDeltaRecordMagic || len > r.remaining()) {
      contents.torn = true;
      break;
    }
    std::vector<uint8_t> container(static_cast<size_t>(len));
    r.Bytes(container.data(), container.size());
    DeltaRecord rec;
    if (!r.ok() ||
        !ParseSnapshot(container, &rec.meta, &rec.operator_name, &rec.state)) {
      contents.torn = true;
      break;
    }
    // Epoch continuity: record i extends barrier base_index + i.
    const uint64_t expected =
        base_index + 1 + static_cast<uint64_t>(contents.records.size());
    if (rec.meta.barrier_index != expected) {
      contents.torn = true;
      break;
    }
    contents.records.push_back(std::move(rec));
  }
  *out = std::move(contents);
  return true;
}

}  // namespace state
}  // namespace scotty
