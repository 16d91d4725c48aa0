// Write-ahead log for the serving runtime's ingest path ("STGW"
// container): the durability half of the crash story. STGT checkpoints
// capture the model at a training boundary; everything the server ingests
// *after* that checkpoint lives only in memory — until this log. The
// server journals one record per committed timeline step (the start
// snapshot, then every ingested delta + feature matrix), and
// Server::recover() replays checkpoint + WAL to republish a read view
// bit-identical to a process that never crashed.
//
// On-disk format (little-endian, like every STGraph container):
//
//   header   u32 magic "STGW"  u32 version
//   record*  u32 payload_len   u32 crc32(payload)   payload bytes
//
//   payload  u8 type (1=start, 2=ingest)
//            u32 time    — server time AFTER the step commits
//            u64 version — server version AFTER the step commits
//            type=start: features tensor, hidden tensor (rows=0 if none)
//            type=ingest: u32 n_add, u32 n_del, (u32,u32) pairs,
//                         features tensor
//   tensor   u32 rows, u32 cols, rows*cols f32
//
// Torn-tail discipline: records are appended with write(2)+fsync(2) (one
// syscall pair per record by default; WalWriter::sync_every batches). A
// crash mid-append leaves a partial record at the tail; read() stops at
// the first record whose length/CRC does not check out and reports
// `torn_tail` + the byte offset of the last valid record, and
// truncate_torn_tail() shrinks the file back to that offset so subsequent
// appends extend a clean log. A failed in-process append rolls the file
// back itself (ftruncate to the pre-record offset), so the live log never
// carries a torn record while the server runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dtdg.hpp"
#include "tensor/tensor.hpp"

namespace stgraph::serve::wal {

constexpr uint32_t kMagic = 0x53544757;  // "STGW" (same byte order family
                                         // as the STGS/STGD/STGC/STGT magics)
constexpr uint32_t kVersion = 1;

enum class RecordType : uint8_t { kStart = 1, kIngest = 2 };

/// One journaled timeline step.
struct Record {
  RecordType type = RecordType::kIngest;
  uint32_t time = 0;     ///< server time after the step committed
  uint64_t version = 0;  ///< server version after the step committed
  EdgeDelta delta;       ///< kIngest only
  Tensor features;       ///< x at `time`
  Tensor hidden;         ///< kStart only: h entering `time` (may be undefined)
};

/// Appender with per-record CRC framing and explicit durability control.
class Writer {
 public:
  /// Opens `path` for appending; `truncate` starts a fresh log (header is
  /// (re)written), otherwise records append after existing content —
  /// recover() uses that to keep journaling into the log it replayed.
  /// `sync_every` fsyncs after every Nth record (1 = every record, the
  /// default; 0 = never, for benches that only care about throughput).
  Writer(const std::string& path, bool truncate, uint32_t sync_every = 1);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Append one record. Failpoint "serve.wal.append" fires before the
  /// write; on any failure the file is truncated back to its pre-record
  /// length so the live log never holds a torn record, then StgError is
  /// thrown (the server aborts the ingest — nothing was committed).
  void append(const Record& rec);
  /// Force an fsync now (stop() calls this regardless of sync_every).
  void sync();

  uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_ = -1;
  uint32_t sync_every_ = 1;
  uint64_t bytes_ = 0;
  uint64_t unsynced_ = 0;
};

/// Everything read() learned about a log file.
struct ReadResult {
  std::vector<Record> records;  ///< every CRC-valid record, in order
  uint64_t valid_bytes = 0;     ///< offset just past the last valid record
  uint64_t total_bytes = 0;     ///< file size
  bool torn_tail = false;       ///< trailing bytes failed length/CRC checks
};

/// Parse a WAL. Throws StgError when the file is missing, shorter than a
/// header, or carries the wrong magic/version; a torn tail is NOT an error
/// (that is the crash case recovery exists for) — it is reported in the
/// result and the valid prefix is returned.
ReadResult read(const std::string& path);

/// Truncate `path` down to `r.valid_bytes`, discarding a torn tail so the
/// log ends on a record boundary. No-op when the log is clean.
void truncate_torn_tail(const std::string& path, const ReadResult& r);

}  // namespace stgraph::serve::wal
