#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/check.hpp"

namespace stgraph::net {

Client::Client(const std::string& host, uint16_t port, double timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  STG_CHECK(fd_ >= 0, "net: client socket() failed: ", std::strerror(errno));
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_ms / 1000.0);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  STG_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "net: '", host, "' is not a valid IPv4 address");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    STG_CHECK(false, "net: connect(", host, ":", port, ") failed: ",
              std::strerror(err));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_request_id_(other.next_request_id_),
      decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

void Client::send_raw(const void* data, std::size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw StgError(std::string("net: client send failed: ") +
                     std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
  }
}

Frame Client::read_frame(uint64_t expect_request_id) {
  char buf[64 * 1024];
  while (true) {
    Frame f;
    std::string line;
    switch (decoder_.next(&f, &line)) {
      case FrameDecoder::Status::kFrame:
        // Responses arrive in completion order; a synchronous client has
        // exactly one request outstanding, so anything else is a protocol
        // violation by the server.
        STG_CHECK(f.request_id == expect_request_id,
                  "net: response request id ", f.request_id,
                  " does not match the outstanding request ",
                  expect_request_id);
        return f;
      case FrameDecoder::Status::kJsonLine:
        throw StgError("net: unexpected JSON line on a binary connection");
      case FrameDecoder::Status::kProtocolError:
        throw StgError("net: client decoder: " + decoder_.error());
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0)
      throw StgError("net: server closed the connection mid-response");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StgError(std::string("net: client recv failed: ") +
                     std::strerror(errno));
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

Frame Client::round_trip(Verb verb, std::vector<uint8_t> payload) {
  Frame req;
  req.verb = verb;
  req.request_id = next_request_id_++;
  req.payload = std::move(payload);
  const std::vector<uint8_t> bytes = encode_frame(req);
  send_raw(bytes.data(), bytes.size());
  Frame resp = read_frame(req.request_id);
  if (resp.verb == Verb::kError) {
    std::string message;
    const ErrorCode code = parse_error(resp.payload, &message);
    throw NetError(code, message);
  }
  const auto expected =
      static_cast<Verb>(static_cast<uint8_t>(verb) | 0x80);
  STG_CHECK(resp.verb == expected, "net: unexpected response verb ",
            static_cast<int>(resp.verb), " to request verb ",
            static_cast<int>(verb));
  return resp;
}

PredictWire Client::predict(const std::vector<uint32_t>& nodes) {
  Frame resp = round_trip(Verb::kPredict, build_predict_request(nodes));
  return parse_predict_response(resp.payload);
}

IngestWire Client::ingest(const EdgeDelta& delta, const Tensor& next_features) {
  Frame resp =
      round_trip(Verb::kIngest, build_ingest_request(delta, next_features));
  return parse_ingest_response(resp.payload);
}

std::string Client::stats_json() {
  Frame resp = round_trip(Verb::kStats, {});
  return std::string(resp.payload.begin(), resp.payload.end());
}

std::string Client::health_json() {
  Frame resp = round_trip(Verb::kHealth, {});
  return std::string(resp.payload.begin(), resp.payload.end());
}

std::string Client::read_line() {
  std::string out;
  char c;
  while (true) {
    // Byte-at-a-time is fine here: the JSON fallback is a debug/demo
    // path, not the throughput path.
    const ssize_t n = ::recv(fd_, &c, 1, 0);
    if (n == 0) throw StgError("net: server closed mid-line");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StgError(std::string("net: client recv failed: ") +
                     std::strerror(errno));
    }
    if (c == '\n') return out;
    out += c;
  }
}

std::string Client::json_round_trip(const std::string& line) {
  std::string msg = line;
  if (msg.empty() || msg.back() != '\n') msg += '\n';
  send_raw(msg.data(), msg.size());
  return read_line();
}

std::vector<uint8_t> Client::read_until_close() {
  std::vector<uint8_t> out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      out.insert(out.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return out;  // EOF, timeout, or reset — caller inspects what arrived
  }
}

}  // namespace stgraph::net
