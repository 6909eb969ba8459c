#include "util/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/durable_io.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"

namespace gcsm::wal {
namespace {

std::string errno_text() { return std::strerror(errno); }

// Cuts the file to `size` bytes and, when `sync`, makes the cut durable.
// False (errno set) when either step fails.
bool cut_file(int fd, std::uint64_t size, bool sync) {
  return ::ftruncate(fd, static_cast<off_t>(size)) == 0 &&
         (!sync || ::fsync(fd) == 0);
}

void write_all(int fd, const char* data, std::size_t len,
               const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(ErrorCode::kWalWrite,
                  "cannot append to WAL " + path + ": " + errno_text());
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string encode_record(RecordType type, std::uint64_t seq,
                          std::string_view payload) {
  std::string rec;
  rec.reserve(kHeaderBytes + payload.size());
  io::put_u32(rec, kMagic);
  io::put_u8(rec, static_cast<std::uint8_t>(type));
  io::put_u64(rec, seq);
  io::put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  // CRC over everything before the crc field, then the payload.
  std::uint32_t crc = io::crc32c(rec);
  crc = io::crc32c(payload, crc);
  io::put_u32(rec, crc);
  rec.append(payload);
  return rec;
}

Writer::Writer(std::string path, bool sync, FaultInjector* faults)
    : path_(std::move(path)), sync_enabled_(sync), faults_(faults) {
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);  // NOLINT
  if (fd_ < 0) {
    throw Error(ErrorCode::kIoOpen,
                "cannot open WAL " + path_ + ": " + errno_text());
  }
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    const std::string why = errno_text();
    ::close(fd_);
    throw Error(ErrorCode::kIoOpen, "cannot stat WAL " + path_ + ": " + why);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

Writer::~Writer() {
  if (fd_ >= 0) ::close(fd_);
}

void Writer::append(RecordType type, std::uint64_t seq,
                    std::string_view payload) {
  static auto& m_records = metrics::Registry::global().counter(metric::kWalRecords);
  static auto& m_bytes = metrics::Registry::global().counter(metric::kWalBytes);
  const std::string rec = encode_record(type, seq, payload);
  const std::lock_guard<std::mutex> lock(mu_);
  if (torn_tail_) {
    throw Error(ErrorCode::kIoOpen, "WAL " + path_ +
                                        " ends in torn bytes it could not "
                                        "cut; recover before appending");
  }
  try {
    if (faults_ != nullptr) {
      if (const auto spec = faults_->fires_spec(fault_site::kWalWrite)) {
        // A write(2) that fails part-way: crash_at_byte bytes of the record
        // reach the file before the refusal.
        const std::size_t torn =
            std::min<std::size_t>(spec->crash_at_byte, rec.size());
        write_all(fd_, rec.data(), torn, path_);
        throw Error(ErrorCode::kWalWrite,
                    "injected fault: WAL append refused after " +
                        std::to_string(torn) + " bytes (" + path_ + ")");
      }
      if (const auto spec = faults_->fires_spec(fault_site::kCrashAt)) {
        const std::size_t torn =
            std::min<std::size_t>(spec->crash_at_byte, rec.size());
        write_all(fd_, rec.data(), torn, path_);
        throw CrashError("injected crash: WAL append of seq " +
                         std::to_string(seq) + " torn at byte " +
                         std::to_string(torn));
      }
    }
    write_all(fd_, rec.data(), rec.size(), path_);
  } catch (const CrashError&) {
    throw;  // the process is dead; recovery repairs the torn tail
  } catch (const Error&) {
    // The failed write may have left a prefix of the record. Cut the log
    // back to its last whole record, so that a retry appends right after
    // it; a log that cannot be cut takes no more appends.
    if (!cut_file(fd_, size_, sync_enabled_)) {
      torn_tail_ = true;
      throw Error(ErrorCode::kIoOpen,
                  "cannot cut WAL " + path_ + " back to " +
                      std::to_string(size_) +
                      " bytes after a failed append: " + errno_text());
    }
    throw;
  }
  bytes_appended_ += rec.size();
  size_ += rec.size();
  dirty_ = true;
  m_records.add();
  m_bytes.add(rec.size());
}

void Writer::sync() {
  static auto& m_fsyncs = metrics::Registry::global().counter(metric::kWalFsyncs);
  static auto& h_fsync =
      metrics::Registry::global().histogram(metric::kWalFsyncMs);
  const std::lock_guard<std::mutex> lock(mu_);
  if (faults_ != nullptr && faults_->fires(fault_site::kWalFsync)) {
    throw Error(ErrorCode::kWalWrite,
                "injected fault: WAL fsync failed (" + path_ + ")");
  }
  if (faults_ != nullptr && faults_->fires_spec(fault_site::kCrashAt)) {
    throw CrashError("injected crash: before WAL fsync of " + path_);
  }
  if (!dirty_) return;
  if (sync_enabled_) {
    const Timer t;
    if (::fsync(fd_) != 0) {
      throw Error(ErrorCode::kWalWrite,
                  "cannot fsync WAL " + path_ + ": " + errno_text());
    }
    h_fsync.observe(t.millis());
  }
  dirty_ = false;
  m_fsyncs.add();
}

void Writer::truncate(std::uint64_t size) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!cut_file(fd_, size, sync_enabled_)) {
    throw Error(ErrorCode::kWalWrite,
                "cannot truncate WAL " + path_ + ": " + errno_text());
  }
  size_ = size;
  dirty_ = false;
}

ReadResult read_all(const std::string& path) {
  ReadResult result;
  const std::optional<std::string> bytes = io::read_file_if_exists(path);
  if (!bytes.has_value()) return result;
  const std::string_view data = *bytes;

  std::size_t pos = 0;
  auto damaged = [&](const std::string& reason) {
    result.tail_damaged = true;
    result.tail_reason = reason + " at byte " + std::to_string(pos);
  };
  while (pos < data.size()) {
    if (data.size() - pos < kHeaderBytes) {
      damaged("torn record header");
      break;
    }
    io::ByteReader header(data.substr(pos, kHeaderBytes));
    const std::uint32_t magic = header.get_u32();
    const std::uint8_t type = header.get_u8();
    const std::uint64_t seq = header.get_u64();
    const std::uint32_t len = header.get_u32();
    const std::uint32_t crc = header.get_u32();
    if (magic != kMagic) {
      damaged("bad record magic");
      break;
    }
    if (type != static_cast<std::uint8_t>(RecordType::kBatch) &&
        type != static_cast<std::uint8_t>(RecordType::kCommit) &&
        type != static_cast<std::uint8_t>(RecordType::kServerState) &&
        type != static_cast<std::uint8_t>(RecordType::kShed)) {
      damaged("unknown record type " + std::to_string(type));
      break;
    }
    if (len > kMaxPayloadBytes) {
      damaged("implausible payload length " + std::to_string(len));
      break;
    }
    if (data.size() - pos - kHeaderBytes < len) {
      damaged("torn record payload");
      break;
    }
    const std::string_view payload = data.substr(pos + kHeaderBytes, len);
    std::uint32_t expect = io::crc32c(data.substr(pos, kHeaderBytes - 4));
    expect = io::crc32c(payload, expect);
    if (expect != crc) {
      damaged("record CRC mismatch (seq " + std::to_string(seq) + ")");
      break;
    }
    result.records.push_back(
        {static_cast<RecordType>(type), seq, std::string(payload)});
    pos += kHeaderBytes + len;
  }
  result.valid_bytes = pos;
  return result;
}

void truncate_log(const std::string& path, std::uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    throw Error(ErrorCode::kIoOpen,
                "cannot truncate WAL " + path + ": " + errno_text());
  }
}

}  // namespace gcsm::wal
