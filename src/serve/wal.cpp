#include "serve/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "runtime/analyze.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"

namespace stgraph::serve::wal {

namespace {

void put_u32(std::string& buf, uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_u64(std::string& buf, uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_tensor(std::string& buf, const Tensor& t) {
  const uint32_t rows = t.defined() ? static_cast<uint32_t>(t.rows()) : 0;
  const uint32_t cols = t.defined() ? static_cast<uint32_t>(t.cols()) : 0;
  put_u32(buf, rows);
  put_u32(buf, cols);
  if (rows && cols)
    buf.append(reinterpret_cast<const char*>(t.data()),
               static_cast<std::size_t>(rows) * cols * sizeof(float));
}

std::string encode_payload(const Record& rec) {
  std::string buf;
  buf.push_back(static_cast<char>(rec.type));
  put_u32(buf, rec.time);
  put_u64(buf, rec.version);
  if (rec.type == RecordType::kStart) {
    put_tensor(buf, rec.features);
    put_tensor(buf, rec.hidden);
  } else {
    put_u32(buf, static_cast<uint32_t>(rec.delta.additions.size()));
    put_u32(buf, static_cast<uint32_t>(rec.delta.deletions.size()));
    for (const auto& [s, d] : rec.delta.additions) {
      put_u32(buf, s);
      put_u32(buf, d);
    }
    for (const auto& [s, d] : rec.delta.deletions) {
      put_u32(buf, s);
      put_u32(buf, d);
    }
    put_tensor(buf, rec.features);
  }
  return buf;
}

/// Bounds-checked cursor over one record payload. Returns false from any
/// getter once the payload is exhausted — the caller treats that record
/// (and everything after it) as the torn tail.
struct Cursor {
  const char* p;
  std::size_t left;

  bool bytes(void* out, std::size_t n) {
    if (left < n) return false;
    std::memcpy(out, p, n);
    p += n;
    left -= n;
    return true;
  }
  template <typename T>
  bool scalar(T* out) {
    return bytes(out, sizeof(T));
  }
  bool tensor(Tensor* out) {
    uint32_t rows = 0, cols = 0;
    if (!scalar(&rows) || !scalar(&cols)) return false;
    if (rows == 0 || cols == 0) {
      *out = Tensor();
      return true;
    }
    const std::size_t n = static_cast<std::size_t>(rows) * cols;
    if (left < n * sizeof(float)) return false;
    Tensor t = Tensor::empty({static_cast<int64_t>(rows),
                              static_cast<int64_t>(cols)});
    if (!bytes(t.data(), n * sizeof(float))) return false;
    *out = t;
    return true;
  }
};

bool decode_payload(const char* data, std::size_t n, Record* rec) {
  Cursor c{data, n};
  uint8_t type = 0;
  if (!c.scalar(&type)) return false;
  if (type != static_cast<uint8_t>(RecordType::kStart) &&
      type != static_cast<uint8_t>(RecordType::kIngest))
    return false;
  rec->type = static_cast<RecordType>(type);
  if (!c.scalar(&rec->time) || !c.scalar(&rec->version)) return false;
  if (rec->type == RecordType::kStart) {
    if (!c.tensor(&rec->features) || !c.tensor(&rec->hidden)) return false;
  } else {
    uint32_t n_add = 0, n_del = 0;
    if (!c.scalar(&n_add) || !c.scalar(&n_del)) return false;
    // Sanity-bound the claimed counts against the remaining payload before
    // reserving (the corrupt-file discipline of io::Reader).
    if (c.left < (static_cast<std::size_t>(n_add) + n_del) * 8) return false;
    rec->delta.additions.clear();
    rec->delta.deletions.clear();
    rec->delta.additions.reserve(n_add);
    rec->delta.deletions.reserve(n_del);
    for (uint32_t i = 0; i < n_add; ++i) {
      uint32_t s = 0, d = 0;
      if (!c.scalar(&s) || !c.scalar(&d)) return false;
      rec->delta.additions.emplace_back(s, d);
    }
    for (uint32_t i = 0; i < n_del; ++i) {
      uint32_t s = 0, d = 0;
      if (!c.scalar(&s) || !c.scalar(&d)) return false;
      rec->delta.deletions.emplace_back(s, d);
    }
    if (!c.tensor(&rec->features)) return false;
  }
  return c.left == 0;  // trailing garbage inside a record = invalid
}

}  // namespace

Writer::Writer(const std::string& path, bool truncate, uint32_t sync_every)
    : path_(path), sync_every_(sync_every) {
  if (analyze::armed()) analyze::on_blocking_call("file-io(wal)");
  int flags = O_CREAT | O_WRONLY | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  STG_CHECK(fd_ >= 0, "wal: cannot open '", path, "': ", std::strerror(errno));
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  STG_CHECK(end >= 0, "wal: lseek failed on '", path, "'");
  if (end == 0) {
    std::string hdr;
    put_u32(hdr, kMagic);
    put_u32(hdr, kVersion);
    const ssize_t n = ::write(fd_, hdr.data(), hdr.size());
    STG_CHECK(n == static_cast<ssize_t>(hdr.size()),
              "wal: header write to '", path, "' failed");
    STG_CHECK(::fsync(fd_) == 0, "wal: fsync failed on '", path, "'");
  }
}

Writer::~Writer() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

void Writer::append(const Record& rec) {
  if (analyze::armed()) analyze::on_blocking_call("file-io(wal)");
  STG_CHECK(fd_ >= 0, "wal: append on a closed writer");
  const off_t before = ::lseek(fd_, 0, SEEK_END);
  STG_CHECK(before >= 0, "wal: lseek failed on '", path_, "'");
  try {
    STG_FAILPOINT("serve.wal.append",
                  throw StgError("failpoint serve.wal.append fired at t=" +
                                 std::to_string(rec.time)));
    const std::string payload = encode_payload(rec);
    std::string frame;
    put_u32(frame, static_cast<uint32_t>(payload.size()));
    put_u32(frame, crc32(payload.data(), payload.size()));
    frame += payload;
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + done, frame.size() - done);
      STG_CHECK(n > 0, "wal: write to '", path_, "' failed: ",
                std::strerror(errno));
      done += static_cast<std::size_t>(n);
    }
    bytes_ += frame.size();
    ++unsynced_;
    if (sync_every_ != 0 && unsynced_ >= sync_every_) sync();
  } catch (...) {
    // Roll the file back to the pre-record offset: the live log must never
    // carry a torn record (torn tails are for kill -9, not soft failures).
    if (::ftruncate(fd_, before) == 0) ::fsync(fd_);
    throw;
  }
}

void Writer::sync() {
  if (analyze::armed()) analyze::on_blocking_call("file-io(wal)");
  STG_CHECK(fd_ >= 0, "wal: sync on a closed writer");
  STG_CHECK(::fsync(fd_) == 0, "wal: fsync failed on '", path_, "': ",
            std::strerror(errno));
  unsynced_ = 0;
}

ReadResult read(const std::string& path) {
  if (analyze::armed()) analyze::on_blocking_call("file-io(wal)");
  std::ifstream in(path, std::ios::binary);
  STG_CHECK(in.good(), "wal: cannot open '", path, "'");
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  STG_CHECK(buf.size() >= 8, "wal: '", path, "' is shorter than a header");
  uint32_t magic = 0, version = 0;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(&version, buf.data() + 4, 4);
  STG_CHECK(magic == kMagic, "wal: '", path, "' has wrong magic");
  STG_CHECK(version == kVersion, "wal: '", path, "' has unsupported version ",
            version);

  ReadResult r;
  r.total_bytes = buf.size();
  std::size_t pos = 8;
  r.valid_bytes = pos;
  while (pos < buf.size()) {
    if (buf.size() - pos < 8) break;  // partial frame header → torn
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, buf.data() + pos, 4);
    std::memcpy(&crc, buf.data() + pos + 4, 4);
    if (buf.size() - pos - 8 < len) break;  // partial payload → torn
    const char* payload = buf.data() + pos + 8;
    if (crc32(payload, len) != crc) break;  // bit rot / torn write → torn
    Record rec;
    if (!decode_payload(payload, len, &rec)) break;
    r.records.push_back(std::move(rec));
    pos += 8 + len;
    r.valid_bytes = pos;
  }
  r.torn_tail = r.valid_bytes != r.total_bytes;
  return r;
}

void truncate_torn_tail(const std::string& path, const ReadResult& r) {
  if (!r.torn_tail) return;
  const int fd = ::open(path.c_str(), O_WRONLY);
  STG_CHECK(fd >= 0, "wal: cannot open '", path, "' for truncation");
  const int rc = ::ftruncate(fd, static_cast<off_t>(r.valid_bytes));
  ::fsync(fd);
  ::close(fd);
  STG_CHECK(rc == 0, "wal: truncating '", path, "' to ", r.valid_bytes,
            " bytes failed");
}

}  // namespace stgraph::serve::wal
