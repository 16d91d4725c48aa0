#include "net/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <type_traits>

#include "util/crc32.hpp"

namespace stgraph::net {

namespace {

// Little-endian scalar serialization. x86/aarch64 are both LE; memcpy keeps
// it alignment-safe either way.
template <typename T>
void put(std::vector<uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable<T>::value, "wire scalar");
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Bounds-checked reader over a payload; any overrun is a kBadRequest.
class Reader {
 public:
  Reader(const std::vector<uint8_t>& p) : p_(p) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable<T>::value, "wire scalar");
    if (off_ + sizeof(T) > p_.size())
      throw NetError(ErrorCode::kBadRequest,
                     "net: truncated payload (need " +
                         std::to_string(sizeof(T)) + " bytes at offset " +
                         std::to_string(off_) + " of " +
                         std::to_string(p_.size()) + ")");
    T v;
    std::memcpy(&v, p_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  void get_raw(void* dst, std::size_t n) {
    if (off_ + n > p_.size())
      throw NetError(ErrorCode::kBadRequest,
                     "net: truncated payload (need " + std::to_string(n) +
                         " raw bytes at offset " + std::to_string(off_) + ")");
    std::memcpy(dst, p_.data() + off_, n);
    off_ += n;
  }

  std::size_t remaining() const { return p_.size() - off_; }

  void expect_done(const char* what) const {
    if (off_ != p_.size())
      throw NetError(ErrorCode::kBadRequest,
                     std::string("net: ") + what + " payload has " +
                         std::to_string(p_.size() - off_) +
                         " trailing bytes");
  }

 private:
  const std::vector<uint8_t>& p_;
  std::size_t off_ = 0;
};

void put_tensor(std::vector<uint8_t>& out, const Tensor& t) {
  put<uint32_t>(out, static_cast<uint32_t>(t.rows()));
  put<uint32_t>(out, static_cast<uint32_t>(t.cols()));
  const std::size_t bytes =
      static_cast<std::size_t>(t.rows()) * static_cast<std::size_t>(t.cols()) *
      sizeof(float);
  const std::size_t at = out.size();
  out.resize(at + bytes);
  std::memcpy(out.data() + at, t.data(), bytes);
}

Tensor get_tensor(Reader& r, const char* what) {
  const uint32_t rows = r.get<uint32_t>();
  const uint32_t cols = r.get<uint32_t>();
  const std::size_t count = static_cast<std::size_t>(rows) * cols;
  // Payloads are capped at kMaxPayload, so an element count past that can
  // never be backed by real bytes; checking it via division also keeps
  // count * sizeof(float) from wrapping 2^64 (rows = cols = 2^31 would
  // otherwise pass the bounds check and attempt a 2^62-element alloc).
  if (count > kMaxPayload / sizeof(float) ||
      count * sizeof(float) > r.remaining())
    throw NetError(ErrorCode::kBadRequest,
                   std::string("net: ") + what + " claims a " +
                       std::to_string(rows) + "x" + std::to_string(cols) +
                       " matrix but only " + std::to_string(r.remaining()) +
                       " bytes follow");
  Tensor t = Tensor::zeros({static_cast<int64_t>(rows),
                            static_cast<int64_t>(cols)});
  r.get_raw(t.data(), count * sizeof(float));
  return t;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kDeadlineExpired: return "deadline_expired";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kCircuitOpen: return "circuit_open";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::vector<uint8_t> encode_frame(const Frame& f) {
  STG_CHECK(f.payload.size() <= kMaxPayload, "net: frame payload of ",
            f.payload.size(), " bytes exceeds the ", kMaxPayload,
            "-byte protocol limit");
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + f.payload.size() + kTrailerSize);
  put<uint32_t>(out, kMagic);
  put<uint32_t>(out, static_cast<uint32_t>(f.payload.size()));
  put<uint8_t>(out, static_cast<uint8_t>(f.verb));
  out.insert(out.end(), 3, uint8_t{0});  // reserved
  put<uint64_t>(out, f.request_id);
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  // CRC over verb..payload — everything the length prefix frames.
  const uint32_t crc = crc32(out.data() + 8, out.size() - 8);
  put<uint32_t>(out, crc);
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void FrameDecoder::compact() {
  // Drop consumed prefix once it dominates the buffer, keeping feed()
  // amortized O(1) without re-shifting on every message.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
}

FrameDecoder::Status FrameDecoder::next(Frame* frame, std::string* json_line) {
  if (broken_) return Status::kProtocolError;
  const uint8_t* p = buf_.data() + consumed_;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail == 0) return Status::kNeedMore;

  // JSON fallback: at a message boundary, '{' cannot begin a binary frame
  // (the magic starts with 'S'), so it unambiguously selects line mode.
  if (*p == '{') {
    const uint8_t* nl = static_cast<const uint8_t*>(memchr(p, '\n', avail));
    if (nl == nullptr) {
      if (avail > kMaxPayload) {
        broken_ = true;
        error_ = "net: unterminated JSON line exceeds the payload limit";
        return Status::kProtocolError;
      }
      return Status::kNeedMore;
    }
    json_line->assign(reinterpret_cast<const char*>(p),
                      static_cast<std::size_t>(nl - p));
    consumed_ += static_cast<std::size_t>(nl - p) + 1;
    compact();
    return Status::kJsonLine;
  }

  if (avail < kHeaderSize) {
    // Cheap early rejection: a prefix that already mismatches the magic can
    // never become a valid frame, so garbage fails fast instead of stalling
    // as kNeedMore forever.
    uint32_t magic_prefix = 0;
    std::memcpy(&magic_prefix, p, std::min(avail, sizeof(uint32_t)));
    const uint32_t mask =
        avail >= 4 ? 0xFFFFFFFFu : ((1u << (8 * avail)) - 1u);
    if ((kMagic & mask) != (magic_prefix & mask)) {
      broken_ = true;
      error_ = "net: bad magic — peer is not speaking the STGN protocol";
      return Status::kProtocolError;
    }
    return Status::kNeedMore;
  }

  uint32_t magic, payload_len;
  std::memcpy(&magic, p, 4);
  std::memcpy(&payload_len, p + 4, 4);
  if (magic != kMagic) {
    broken_ = true;
    error_ = "net: bad magic — peer is not speaking the STGN protocol";
    return Status::kProtocolError;
  }
  if (payload_len > kMaxPayload) {
    broken_ = true;
    error_ = "net: frame claims a " + std::to_string(payload_len) +
             "-byte payload (limit " + std::to_string(kMaxPayload) + ")";
    return Status::kProtocolError;
  }
  const std::size_t total = kHeaderSize + payload_len + kTrailerSize;
  if (avail < total) return Status::kNeedMore;

  uint32_t claimed_crc;
  std::memcpy(&claimed_crc, p + kHeaderSize + payload_len, 4);
  const uint32_t actual_crc = crc32(p + 8, kHeaderSize - 8 + payload_len);
  if (claimed_crc != actual_crc) {
    broken_ = true;
    error_ = "net: frame CRC mismatch — corrupt or torn stream";
    return Status::kProtocolError;
  }

  frame->verb = static_cast<Verb>(p[8]);
  std::memcpy(&frame->request_id, p + 12, 8);
  frame->payload.assign(p + kHeaderSize, p + kHeaderSize + payload_len);
  consumed_ += total;
  compact();
  return Status::kFrame;
}

// ---- payloads -------------------------------------------------------------

std::vector<uint8_t> build_predict_request(const std::vector<uint32_t>& nodes) {
  std::vector<uint8_t> out;
  put<uint32_t>(out, static_cast<uint32_t>(nodes.size()));
  for (uint32_t n : nodes) put<uint32_t>(out, n);
  return out;
}

std::vector<uint32_t> parse_predict_request(const std::vector<uint8_t>& p) {
  Reader r(p);
  const uint32_t n = r.get<uint32_t>();
  if (static_cast<std::size_t>(n) * sizeof(uint32_t) > r.remaining())
    throw NetError(ErrorCode::kBadRequest,
                   "net: predict request claims " + std::to_string(n) +
                       " node ids but only " + std::to_string(r.remaining()) +
                       " bytes follow");
  std::vector<uint32_t> nodes(n);
  if (n > 0) r.get_raw(nodes.data(), nodes.size() * sizeof(uint32_t));
  r.expect_done("predict request");
  return nodes;
}

std::vector<uint8_t> build_predict_response(const PredictWire& resp) {
  std::vector<uint8_t> out;
  put<uint32_t>(out, resp.time);
  put<uint64_t>(out, resp.version);
  put<uint8_t>(out, resp.stale ? 1 : 0);
  put_tensor(out, resp.outputs);
  return out;
}

PredictWire parse_predict_response(const std::vector<uint8_t>& p) {
  Reader r(p);
  PredictWire resp;
  resp.time = r.get<uint32_t>();
  resp.version = r.get<uint64_t>();
  resp.stale = r.get<uint8_t>() != 0;
  resp.outputs = get_tensor(r, "predict response");
  r.expect_done("predict response");
  return resp;
}

std::vector<uint8_t> build_ingest_request(const EdgeDelta& delta,
                                          const Tensor& next_features) {
  std::vector<uint8_t> out;
  put<uint32_t>(out, static_cast<uint32_t>(delta.additions.size()));
  for (const auto& [s, d] : delta.additions) {
    put<uint32_t>(out, s);
    put<uint32_t>(out, d);
  }
  put<uint32_t>(out, static_cast<uint32_t>(delta.deletions.size()));
  for (const auto& [s, d] : delta.deletions) {
    put<uint32_t>(out, s);
    put<uint32_t>(out, d);
  }
  put_tensor(out, next_features);
  return out;
}

void parse_ingest_request(const std::vector<uint8_t>& p, EdgeDelta* delta,
                          Tensor* next_features) {
  Reader r(p);
  const uint32_t n_add = r.get<uint32_t>();
  if (static_cast<std::size_t>(n_add) * 8 > r.remaining())
    throw NetError(ErrorCode::kBadRequest,
                   "net: ingest request claims " + std::to_string(n_add) +
                       " additions past the payload end");
  delta->additions.clear();
  delta->additions.reserve(n_add);
  for (uint32_t i = 0; i < n_add; ++i) {
    const uint32_t s = r.get<uint32_t>();
    const uint32_t d = r.get<uint32_t>();
    delta->additions.emplace_back(s, d);
  }
  const uint32_t n_del = r.get<uint32_t>();
  if (static_cast<std::size_t>(n_del) * 8 > r.remaining())
    throw NetError(ErrorCode::kBadRequest,
                   "net: ingest request claims " + std::to_string(n_del) +
                       " deletions past the payload end");
  delta->deletions.clear();
  delta->deletions.reserve(n_del);
  for (uint32_t i = 0; i < n_del; ++i) {
    const uint32_t s = r.get<uint32_t>();
    const uint32_t d = r.get<uint32_t>();
    delta->deletions.emplace_back(s, d);
  }
  *next_features = get_tensor(r, "ingest request");
  r.expect_done("ingest request");
}

std::vector<uint8_t> build_ingest_response(const IngestWire& resp) {
  std::vector<uint8_t> out;
  put<uint32_t>(out, resp.time);
  put<uint64_t>(out, resp.version);
  put<uint32_t>(out, resp.num_edges);
  return out;
}

IngestWire parse_ingest_response(const std::vector<uint8_t>& p) {
  Reader r(p);
  IngestWire resp;
  resp.time = r.get<uint32_t>();
  resp.version = r.get<uint64_t>();
  resp.num_edges = r.get<uint32_t>();
  r.expect_done("ingest response");
  return resp;
}

std::vector<uint8_t> build_error(ErrorCode code, const std::string& message) {
  std::vector<uint8_t> out;
  out.reserve(1 + message.size());
  put<uint8_t>(out, static_cast<uint8_t>(code));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

ErrorCode parse_error(const std::vector<uint8_t>& p, std::string* message) {
  Reader r(p);
  const auto code = static_cast<ErrorCode>(r.get<uint8_t>());
  message->assign(reinterpret_cast<const char*>(p.data()) + 1, p.size() - 1);
  return code;
}

// ---- JSON fallback --------------------------------------------------------

namespace {

/// Find `"key"` at object level and return the index just past the ':',
/// or npos. Good enough for the flat single-line requests the fallback
/// accepts; nested objects are rejected by the value parsers below.
std::size_t find_value(const std::string& s, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t at = s.find(needle);
  if (at == std::string::npos) return std::string::npos;
  at += needle.size();
  while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at])))
    ++at;
  if (at >= s.size() || s[at] != ':') return std::string::npos;
  ++at;
  while (at < s.size() && std::isspace(static_cast<unsigned char>(s[at])))
    ++at;
  return at;
}

}  // namespace

JsonRequest parse_json_request(const std::string& line) {
  JsonRequest req;
  std::size_t at = find_value(line, "op");
  if (at == std::string::npos || at >= line.size() || line[at] != '"')
    throw NetError(ErrorCode::kBadRequest,
                   "net: JSON request needs a string \"op\" field "
                   "(predict|stats|health)");
  const std::size_t end = line.find('"', at + 1);
  if (end == std::string::npos)
    throw NetError(ErrorCode::kBadRequest,
                   "net: unterminated \"op\" string");
  req.op = line.substr(at + 1, end - at - 1);
  if (req.op != "predict" && req.op != "stats" && req.op != "health")
    throw NetError(ErrorCode::kBadRequest,
                   "net: unsupported op '" + req.op +
                       "' — the JSON fallback speaks predict|stats|health "
                       "(ingest requires the binary protocol)");

  at = find_value(line, "nodes");
  if (at != std::string::npos) {
    if (at >= line.size() || line[at] != '[')
      throw NetError(ErrorCode::kBadRequest,
                     "net: \"nodes\" must be an array of node ids");
    std::size_t i = at + 1;
    while (true) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])))
        ++i;
      if (i >= line.size())
        throw NetError(ErrorCode::kBadRequest,
                       "net: unterminated \"nodes\" array");
      if (line[i] == ']') break;
      // strtoul happily wraps negatives ("-1" parses as ULONG_MAX), so
      // reject a leading '-' explicitly, then range-check the result.
      char* parse_end = nullptr;
      const unsigned long v = std::strtoul(line.c_str() + i, &parse_end, 10);
      if (parse_end == line.c_str() + i || line[i] == '-' ||
          v > 0xFFFFFFFFul)
        throw NetError(ErrorCode::kBadRequest,
                       "net: \"nodes\" must contain only integers in "
                       "[0, 4294967295]");
      req.nodes.push_back(static_cast<uint32_t>(v));
      i = static_cast<std::size_t>(parse_end - line.c_str());
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])))
        ++i;
      if (i < line.size() && line[i] == ',') ++i;
    }
  }
  return req;
}

}  // namespace stgraph::net
