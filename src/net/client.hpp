// Blocking client for the STGN wire protocol — what the load generator,
// the socket tests and the demo use to talk to a Frontend. One TCP
// connection per Client; requests are synchronous (send frame, read
// frames until the echoed request id comes back). A kError response
// rethrows as NetError carrying the typed wire code, so a shed crossing
// the network is catch-able exactly like a local serve::ShedError.
//
// Thread-compatibility: a Client is NOT thread-safe; give each load
// generator thread its own connection (which is also what an open-loop
// arrival process wants).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace stgraph::net {

class Client {
 public:
  /// Connect (blocking) with an optional per-socket receive timeout.
  Client(const std::string& host, uint16_t port, double timeout_ms = 5000.0);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;

  /// Throws NetError (typed wire code) on a kError response, StgError on
  /// transport failure.
  PredictWire predict(const std::vector<uint32_t>& nodes = {});
  IngestWire ingest(const EdgeDelta& delta, const Tensor& next_features);
  std::string stats_json();
  std::string health_json();

  /// JSON fallback: send one raw line (newline appended if missing) and
  /// return the response line. Exercises the netcat path end to end.
  std::string json_round_trip(const std::string& line);

  /// Send raw bytes as-is — torn/garbage-frame fuzzing.
  void send_raw(const void* data, std::size_t n);
  /// Read until EOF or timeout; returns everything received (fuzz tests
  /// inspect the error frame / close behaviour).
  std::vector<uint8_t> read_until_close();

  int fd() const { return fd_; }

 private:
  Frame round_trip(Verb verb, std::vector<uint8_t> payload);
  Frame read_frame(uint64_t expect_request_id);
  std::string read_line();

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
};

}  // namespace stgraph::net
