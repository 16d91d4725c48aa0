// Wire-protocol unit tests: frame encode/decode round trips, torn-stream
// reassembly at every split point, garbage/oversized/CRC-corrupt frame
// rejection, payload parser bounds checking, and the JSON fallback
// request scanner. Pure in-memory — no sockets (see test_serve_net.cpp
// for loopback coverage).
#include <gtest/gtest.h>

#include <cstring>

#include "net/protocol.hpp"
#include "serve/health.hpp"
#include "util/crc32.hpp"

namespace stgraph {
namespace {

using net::ErrorCode;
using net::Frame;
using net::FrameDecoder;
using net::NetError;
using net::Verb;

Frame make_predict_frame() {
  Frame f;
  f.verb = Verb::kPredict;
  f.request_id = 0xDEADBEEFCAFEull;
  f.payload = net::build_predict_request({3, 1, 4, 1, 5});
  return f;
}

TEST(NetProtocol, FrameRoundTripsThroughTheDecoder) {
  const Frame f = make_predict_frame();
  const std::vector<uint8_t> bytes = net::encode_frame(f);
  ASSERT_EQ(bytes.size(),
            net::kHeaderSize + f.payload.size() + net::kTrailerSize);
  // Bytes 9..11 are the reserved field, written as zero.
  EXPECT_EQ(bytes[9], 0);
  EXPECT_EQ(bytes[10], 0);
  EXPECT_EQ(bytes[11], 0);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  std::string line;
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.verb, Verb::kPredict);
  EXPECT_EQ(out.request_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(net::parse_predict_request(out.payload),
            (std::vector<uint32_t>{3, 1, 4, 1, 5}));
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(NetProtocol, ReservedHeaderBytesAreIgnoredOnRead) {
  // A peer that sets the reserved field (under a CRC that covers it) still
  // gets its frame decoded unchanged.
  const Frame f = make_predict_frame();
  std::vector<uint8_t> bytes = net::encode_frame(f);
  bytes[9] = 0x01;
  bytes[10] = 0x2A;
  bytes[11] = 0xFF;
  const uint32_t crc =
      crc32(bytes.data() + 8, bytes.size() - 8 - net::kTrailerSize);
  std::memcpy(bytes.data() + bytes.size() - net::kTrailerSize, &crc, 4);

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  std::string line;
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.verb, f.verb);
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(NetProtocol, TornStreamReassemblesAtEverySplitPoint) {
  const Frame f = make_predict_frame();
  const std::vector<uint8_t> bytes = net::encode_frame(f);
  for (std::size_t split = 1; split < bytes.size(); ++split) {
    FrameDecoder dec;
    Frame out;
    std::string line;
    dec.feed(bytes.data(), split);
    ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kNeedMore)
        << "split at " << split;
    dec.feed(bytes.data() + split, bytes.size() - split);
    ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame)
        << "split at " << split;
    EXPECT_EQ(out.request_id, f.request_id);
  }
}

TEST(NetProtocol, BackToBackFramesDecodeIndividually) {
  const Frame a = make_predict_frame();
  Frame b;
  b.verb = Verb::kStats;
  b.request_id = 7;
  std::vector<uint8_t> bytes = net::encode_frame(a);
  const std::vector<uint8_t> second = net::encode_frame(b);
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  std::string line;
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.verb, Verb::kPredict);
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.verb, Verb::kStats);
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kNeedMore);
}

TEST(NetProtocol, GarbageIsRejectedImmediately) {
  FrameDecoder dec;
  const char garbage[] = "GET / HTTP/1.1\r\n";
  dec.feed(garbage, sizeof(garbage) - 1);
  Frame out;
  std::string line;
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kProtocolError);
  EXPECT_NE(dec.error().find("magic"), std::string::npos);
  // A broken decoder stays broken — the stream has lost framing.
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kProtocolError);
}

TEST(NetProtocol, GarbagePrefixFailsFastBeforeAFullHeaderArrives) {
  FrameDecoder dec;
  dec.feed("XY", 2);  // two bytes that already mismatch the magic
  Frame out;
  std::string line;
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kProtocolError);
}

TEST(NetProtocol, OversizedFrameIsRejectedAtHeaderParseTime) {
  Frame f = make_predict_frame();
  std::vector<uint8_t> bytes = net::encode_frame(f);
  const uint32_t huge = net::kMaxPayload + 1;
  std::memcpy(bytes.data() + 4, &huge, 4);  // forge payload_len
  FrameDecoder dec;
  // Feed just the header: rejection must not wait for the claimed payload.
  dec.feed(bytes.data(), net::kHeaderSize);
  Frame out;
  std::string line;
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kProtocolError);
  EXPECT_NE(dec.error().find("payload"), std::string::npos);
}

TEST(NetProtocol, CorruptPayloadFailsTheCrc) {
  const Frame f = make_predict_frame();
  std::vector<uint8_t> bytes = net::encode_frame(f);
  bytes[net::kHeaderSize + 2] ^= 0x40;  // flip one payload bit
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  std::string line;
  EXPECT_EQ(dec.next(&out, &line), FrameDecoder::Status::kProtocolError);
  EXPECT_NE(dec.error().find("CRC"), std::string::npos);
}

TEST(NetProtocol, PayloadParsersRejectTruncationAndTrailingBytes) {
  // Truncated: predict request claiming 5 ids with 1 present.
  std::vector<uint8_t> p = net::build_predict_request({1});
  p[0] = 5;
  EXPECT_THROW(net::parse_predict_request(p), NetError);

  // Trailing junk after a well-formed request.
  p = net::build_predict_request({1, 2});
  p.push_back(0xAB);
  EXPECT_THROW(net::parse_predict_request(p), NetError);

  // Ingest claiming more additions than the payload holds.
  EdgeDelta delta;
  delta.additions = {{0, 1}};
  std::vector<uint8_t> ing =
      net::build_ingest_request(delta, Tensor::zeros({2, 2}));
  ing[0] = 200;
  EdgeDelta out_delta;
  Tensor out_feat;
  EXPECT_THROW(net::parse_ingest_request(ing, &out_delta, &out_feat),
               NetError);

  // Predict response whose matrix header outruns the payload.
  net::PredictWire wire;
  wire.outputs = Tensor::zeros({2, 3});
  std::vector<uint8_t> resp = net::build_predict_response(wire);
  resp.resize(resp.size() - 4);
  EXPECT_THROW(net::parse_predict_response(resp), NetError);
}

TEST(NetProtocol, TensorDimsThatOverflowTheByteCountAreRejected) {
  // rows = cols = 2^31: the element count is 2^62, and * sizeof(float)
  // wraps to 0 mod 2^64 — a naive bounds check would pass and attempt a
  // 2^62-element allocation. The parser must reject it as a bad request.
  auto put_u32 = [](std::vector<uint8_t>& out, uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  std::vector<uint8_t> p;
  put_u32(p, 0);            // no additions
  put_u32(p, 0);            // no deletions
  put_u32(p, 0x80000000u);  // rows
  put_u32(p, 0x80000000u);  // cols
  p.resize(p.size() + 16);  // a little fake "matrix data"
  EdgeDelta delta;
  Tensor feat;
  EXPECT_THROW(net::parse_ingest_request(p, &delta, &feat), NetError);

  // Same header at the front of a predict response.
  std::vector<uint8_t> resp(4 + 8 + 1, 0);  // time, version, stale flag
  put_u32(resp, 0x80000000u);
  put_u32(resp, 0x80000000u);
  EXPECT_THROW(net::parse_predict_response(resp), NetError);
}

TEST(NetProtocol, IngestPayloadRoundTrips) {
  EdgeDelta delta;
  delta.additions = {{0, 5}, {3, 4}};
  delta.deletions = {{1, 2}};
  Tensor feats = Tensor::zeros({3, 2});
  for (int i = 0; i < 6; ++i) feats.data()[i] = static_cast<float>(i) * 0.5f;

  const std::vector<uint8_t> p = net::build_ingest_request(delta, feats);
  EdgeDelta d2;
  Tensor f2;
  net::parse_ingest_request(p, &d2, &f2);
  EXPECT_EQ(d2.additions, delta.additions);
  EXPECT_EQ(d2.deletions, delta.deletions);
  ASSERT_EQ(f2.rows(), 3);
  ASSERT_EQ(f2.cols(), 2);
  EXPECT_EQ(std::memcmp(f2.data(), feats.data(), 6 * sizeof(float)), 0);
}

TEST(NetProtocol, ErrorPayloadCarriesTheShedTaxonomy) {
  const std::vector<uint8_t> p =
      net::build_error(ErrorCode::kCircuitOpen, "stale only");
  std::string message;
  EXPECT_EQ(net::parse_error(p, &message), ErrorCode::kCircuitOpen);
  EXPECT_EQ(message, "stale only");
  // Wire codes 0..3 ARE ShedReason values — the taxonomy crosses intact.
  EXPECT_EQ(static_cast<int>(ErrorCode::kQueueFull),
            static_cast<int>(serve::ShedReason::kQueueFull));
  EXPECT_EQ(static_cast<int>(ErrorCode::kDeadlineExpired),
            static_cast<int>(serve::ShedReason::kDeadlineExpired));
  EXPECT_EQ(static_cast<int>(ErrorCode::kDraining),
            static_cast<int>(serve::ShedReason::kDraining));
  EXPECT_EQ(static_cast<int>(ErrorCode::kCircuitOpen),
            static_cast<int>(serve::ShedReason::kCircuitOpen));
}

TEST(NetProtocol, JsonLinesInterleaveWithBinaryFrames) {
  FrameDecoder dec;
  const std::string json = "{\"op\": \"health\"}\n";
  dec.feed(json.data(), json.size());
  const std::vector<uint8_t> frame = net::encode_frame(make_predict_frame());
  dec.feed(frame.data(), frame.size());

  Frame out;
  std::string line;
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kJsonLine);
  EXPECT_EQ(line, "{\"op\": \"health\"}");
  ASSERT_EQ(dec.next(&out, &line), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out.verb, Verb::kPredict);
}

TEST(NetProtocol, JsonRequestScannerExtractsTheSupportedKeys) {
  // Keys the fallback does not know ("id" here) are ignored.
  net::JsonRequest req = net::parse_json_request(
      "{\"op\": \"predict\", \"nodes\": [4, 2 , 9], \"id\": 3}");
  EXPECT_EQ(req.op, "predict");
  EXPECT_EQ(req.nodes, (std::vector<uint32_t>{4, 2, 9}));

  req = net::parse_json_request("{\"op\": \"stats\"}");
  EXPECT_EQ(req.op, "stats");
  EXPECT_TRUE(req.nodes.empty());

  EXPECT_THROW(net::parse_json_request("{\"nodes\": [1]}"), NetError);
  EXPECT_THROW(net::parse_json_request("{\"op\": \"ingest\"}"), NetError);
  EXPECT_THROW(
      net::parse_json_request("{\"op\": \"predict\", \"nodes\": [1,"),
      NetError);

  // Node ids must land in uint32 exactly: negatives (which strtoul would
  // wrap) and values past 2^32-1 (which a bare cast would truncate to a
  // DIFFERENT node) are rejected, not silently remapped.
  EXPECT_THROW(
      net::parse_json_request("{\"op\": \"predict\", \"nodes\": [-1]}"),
      NetError);
  EXPECT_THROW(net::parse_json_request(
                   "{\"op\": \"predict\", \"nodes\": [4294967296]}"),
               NetError);
  net::JsonRequest max_ok = net::parse_json_request(
      "{\"op\": \"predict\", \"nodes\": [4294967295]}");
  EXPECT_EQ(max_ok.nodes, (std::vector<uint32_t>{4294967295u}));
}

}  // namespace
}  // namespace stgraph
