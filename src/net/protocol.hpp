// Wire protocol of the network serving front-end (docs/serving.md "Wire
// protocol"): length-prefixed, CRC-framed binary messages over a byte
// stream, with a newline-delimited JSON fallback on the same port so the
// demo can be driven with netcat.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "STGN"
//   4       4     payload_len           (payload bytes only, <= kMaxPayload)
//   8       1     verb
//   9       3     reserved              (written as 0, ignored on read)
//   12      8     request id            (echoed verbatim in the response)
//   20      len   payload
//   20+len  4     crc32 over bytes [8, 20+len)  — verb through payload
//
// The CRC covers everything the length prefix frames (header tail +
// payload) via util/crc32 — the same checksum the WAL uses — so a torn or
// corrupted frame is rejected as a protocol error, never half-parsed.
//
// Verbs: request verbs are 1..4; a response echoes the request verb with
// the top bit set (0x81..0x84). kError (0x7F) answers any verb that could
// not be served, carrying a typed error code: codes 0..3 are exactly
// serve::ShedReason (the load-shedding taxonomy crosses the wire intact),
// 100 is a malformed/unparseable request, 101 an internal execution error.
//
// JSON fallback: a client that opens with '{' at a frame boundary speaks
// newline-delimited JSON instead: one {"op": "predict"|"stats"|"health",
// ...} object per line, one JSON object per line back. Only reads are
// exposed over JSON; ingest requires the binary frame.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/stgraph_base.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace stgraph::net {

constexpr uint32_t kMagic = 0x4E475453u;  // "STGN" little-endian
constexpr std::size_t kHeaderSize = 20;
constexpr std::size_t kTrailerSize = 4;  // crc32
/// Upper bound on payload_len a peer may claim; anything larger is a
/// protocol error at header-parse time — the decoder never buffers it.
constexpr uint32_t kMaxPayload = 16u << 20;

enum class Verb : uint8_t {
  kPredict = 1,
  kIngest = 2,
  kStats = 3,
  kHealth = 4,
  // Responses: request verb | 0x80.
  kPredictResp = 0x81,
  kIngestResp = 0x82,
  kStatsResp = 0x83,
  kHealthResp = 0x84,
  kError = 0x7F,
};

/// Typed error code carried by a kError response. 0..3 mirror
/// serve::ShedReason numerically; keep them in sync.
enum class ErrorCode : uint8_t {
  kQueueFull = 0,
  kDeadlineExpired = 1,
  kDraining = 2,
  kCircuitOpen = 3,
  kBadRequest = 100,  ///< malformed frame/payload, unknown verb
  kInternal = 101,    ///< execution failed server-side
};

const char* to_string(ErrorCode code);

/// Client-side exception for a kError response (see Client).
class NetError : public StgError {
 public:
  NetError(ErrorCode code, const std::string& what)
      : StgError(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// One decoded (or to-be-encoded) frame.
struct Frame {
  Verb verb = Verb::kError;
  uint64_t request_id = 0;
  std::vector<uint8_t> payload;
};

/// Serialize a frame: header + payload + crc32 trailer.
std::vector<uint8_t> encode_frame(const Frame& f);

/// Incremental decoder over a byte stream: feed() raw socket bytes, then
/// drain next() until kNeedMore. Tolerates arbitrarily torn input (frames
/// split at any byte boundary reassemble) and rejects garbage, oversized
/// or CRC-corrupt frames as kProtocolError with a diagnostic — after which
/// the connection must be dropped (the stream has lost framing).
class FrameDecoder {
 public:
  enum class Status : uint8_t {
    kNeedMore,       ///< no complete message buffered yet
    kFrame,          ///< *frame was filled with a valid binary frame
    kJsonLine,       ///< *json_line was filled with one JSON request line
    kProtocolError,  ///< stream is broken; see error(); close the peer
  };

  void feed(const void* data, std::size_t n);
  Status next(Frame* frame, std::string* json_line);
  const std::string& error() const { return error_; }
  std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::vector<uint8_t> buf_;
  std::size_t consumed_ = 0;  // compacted lazily
  std::string error_;
  bool broken_ = false;

  void compact();
};

// ---- payload builders / parsers -------------------------------------------
// Parsers throw NetError{kBadRequest} on truncated or inconsistent
// payloads; they never read past the payload buffer.

std::vector<uint8_t> build_predict_request(const std::vector<uint32_t>& nodes);
std::vector<uint32_t> parse_predict_request(const std::vector<uint8_t>& p);

struct PredictWire {
  uint32_t time = 0;
  uint64_t version = 0;
  bool stale = false;
  Tensor outputs;  ///< [rows, cols] f32
};
std::vector<uint8_t> build_predict_response(const PredictWire& r);
PredictWire parse_predict_response(const std::vector<uint8_t>& p);

std::vector<uint8_t> build_ingest_request(const EdgeDelta& delta,
                                          const Tensor& next_features);
void parse_ingest_request(const std::vector<uint8_t>& p, EdgeDelta* delta,
                          Tensor* next_features);

struct IngestWire {
  uint32_t time = 0;
  uint64_t version = 0;
  uint32_t num_edges = 0;
};
std::vector<uint8_t> build_ingest_response(const IngestWire& r);
IngestWire parse_ingest_response(const std::vector<uint8_t>& p);

std::vector<uint8_t> build_error(ErrorCode code, const std::string& message);
/// Returns the code; *message gets the diagnostic text.
ErrorCode parse_error(const std::vector<uint8_t>& p, std::string* message);

// ---- JSON fallback --------------------------------------------------------

/// Minimal request extracted from one JSON line. Not a general JSON
/// parser: it scans for the handful of keys the fallback supports and
/// rejects everything else as kBadRequest.
struct JsonRequest {
  std::string op;               ///< "predict" | "stats" | "health"
  std::vector<uint32_t> nodes;  ///< optional "nodes": [..]
};
JsonRequest parse_json_request(const std::string& line);

}  // namespace stgraph::net
