// Deterministic structure-aware fuzz driver for the byte-level readers:
// the STGN wire-frame decoder, the STGW write-ahead log reader, and the
// STGT training-state container. Each case builds VALID artifacts with the
// production writers, then applies seeded structure-aware mutations — bit
// flips, truncations, length/CRC field tweaks, splices, insertions — and
// requires the readers to either parse or reject cleanly (StgError /
// kProtocolError / torn-tail), never crash, hang, or over-read. The runs
// are fully deterministic (fixed seeds, counter-derived per-iteration
// streams), so a failure reproduces by iteration number.
//
// Iteration counts: modest by default so the driver rides in the normal
// suite; `run_all.sh fuzz-smoke` re-runs it under ASan+UBSan with
// STGRAPH_FUZZ_ITERS raised — that environment override is the only
// nondeterminism, and it only changes how far each stream is driven.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/train_state.hpp"
#include "net/protocol.hpp"
#include "serve/wal.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace stgraph {
namespace {

// ---- deterministic PRNG ---------------------------------------------------

/// splitmix64: tiny, seedable, and good enough to spray mutations. Every
/// iteration derives its own stream from (case seed, iteration), so cases
/// are independent and any single iteration replays in isolation.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t next() {
    s += 0x9E3779B97F4A7C15ull;
    uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n). n must be > 0.
  std::size_t below(std::size_t n) { return next() % n; }
};

int iterations(int dflt) {
  const char* e = std::getenv("STGRAPH_FUZZ_ITERS");
  if (!e || !*e) return dflt;
  const long v = std::strtol(e, nullptr, 10);
  return v > 0 ? static_cast<int>(v) : dflt;
}

// ---- structure-aware mutations --------------------------------------------

/// One seeded mutation over a byte buffer. Structure-aware in the sense
/// that beyond blind bit flips it targets the framing fields every format
/// here shares: 32-bit little-endian lengths/CRCs at aligned-ish offsets,
/// truncation at arbitrary points (torn writes), and record splices
/// (duplicated or dropped spans).
void mutate(std::vector<uint8_t>& b, Rng& rng) {
  if (b.empty()) return;
  switch (rng.below(7)) {
    case 0: {  // single bit flip
      b[rng.below(b.size())] ^= static_cast<uint8_t>(1u << rng.below(8));
      break;
    }
    case 1: {  // byte overwrite
      b[rng.below(b.size())] = static_cast<uint8_t>(rng.next());
      break;
    }
    case 2: {  // truncate (torn write)
      b.resize(rng.below(b.size()) + 1);
      break;
    }
    case 3: {  // 32-bit field tweak: off-by-one, zero, huge
      if (b.size() < 4) break;
      const std::size_t at = rng.below(b.size() - 3);
      uint32_t v = 0;
      std::memcpy(&v, b.data() + at, 4);
      switch (rng.below(4)) {
        case 0: v += 1; break;
        case 1: v -= 1; break;
        case 2: v = 0; break;
        default: v = 0xFFFFFFFFu; break;
      }
      std::memcpy(b.data() + at, &v, 4);
      break;
    }
    case 4: {  // splice: duplicate a span over another position
      const std::size_t len = rng.below(std::min<std::size_t>(b.size(), 64)) + 1;
      const std::size_t src = rng.below(b.size() - len + 1);
      const std::size_t dst = rng.below(b.size() - len + 1);
      std::memmove(b.data() + dst, b.data() + src, len);
      break;
    }
    case 5: {  // insert garbage (desyncs framing)
      const std::size_t at = rng.below(b.size() + 1);
      const std::size_t len = rng.below(16) + 1;
      std::vector<uint8_t> junk(len);
      for (auto& c : junk) c = static_cast<uint8_t>(rng.next());
      b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), junk.begin(),
               junk.end());
      break;
    }
    default: {  // drop a span (lost record / partial flush)
      const std::size_t len = rng.below(std::min<std::size_t>(b.size(), 64)) + 1;
      const std::size_t at = rng.below(b.size() - len + 1);
      b.erase(b.begin() + static_cast<std::ptrdiff_t>(at),
              b.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
  }
}

void write_file(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<uint8_t> b((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return b;
}

// ---- STGN wire frames -----------------------------------------------------

std::vector<uint8_t> valid_frame_stream() {
  std::vector<uint8_t> bytes;
  const auto add = [&](net::Verb verb, uint16_t tenant, uint64_t rid,
                       std::size_t payload_len) {
    net::Frame f;
    f.verb = verb;
    f.tenant = tenant;
    f.request_id = rid;
    f.payload.resize(payload_len);
    for (std::size_t i = 0; i < payload_len; ++i)
      f.payload[i] = static_cast<uint8_t>(i * 31 + 7);
    const std::vector<uint8_t> enc = net::encode_frame(f);
    bytes.insert(bytes.end(), enc.begin(), enc.end());
  };
  add(net::Verb::kPredict, 0, 1, 16);
  add(net::Verb::kIngest, 3, 2, 256);
  add(net::Verb::kStats, 1, 3, 0);
  add(net::Verb::kHealth, 7, 4, 1);
  add(net::Verb::kPredictResp, 0, 5, 64);
  return bytes;
}

/// Drive a decoder over `bytes` in seeded chunk sizes until it needs more
/// input or declares the stream broken. Every outcome is legal except a
/// crash; validity invariants are asserted on whatever decodes.
void drive_decoder(const std::vector<uint8_t>& bytes, Rng& rng) {
  net::FrameDecoder dec;
  std::size_t fed = 0;
  int guard = 0;
  bool dead = false;
  while (fed < bytes.size() && !dead) {
    const std::size_t n = std::min(bytes.size() - fed, rng.below(97) + 1);
    dec.feed(bytes.data() + fed, n);
    fed += n;
    for (;;) {
      ASSERT_LT(++guard, 1 << 20) << "decoder failed to make progress";
      net::Frame f;
      std::string line;
      const net::FrameDecoder::Status st = dec.next(&f, &line);
      if (st == net::FrameDecoder::Status::kNeedMore) break;
      if (st == net::FrameDecoder::Status::kProtocolError) {
        // Stream declared broken: the contract says drop the peer. The
        // decoder must have produced a diagnostic.
        EXPECT_FALSE(dec.error().empty());
        dead = true;
        break;
      }
      if (st == net::FrameDecoder::Status::kFrame)
        EXPECT_LE(f.payload.size(), net::kMaxPayload);
    }
  }
}

TEST(FuzzFormats, StgnDecoderSurvivesMutatedStreams) {
  const std::vector<uint8_t> pristine = valid_frame_stream();
  const int iters = iterations(200);
  for (int i = 0; i < iters; ++i) {
    Rng rng(0x5347544E00000000ull + static_cast<uint64_t>(i));  // "SGTN"|i
    std::vector<uint8_t> bytes = pristine;
    const int n_mut = static_cast<int>(rng.below(4)) + 1;
    for (int m = 0; m < n_mut; ++m) mutate(bytes, rng);
    drive_decoder(bytes, rng);
    if (HasFatalFailure()) FAIL() << "iteration " << i;
  }
}

TEST(FuzzFormats, StgnDecoderReassemblesAtEverySplitPoint) {
  // Pristine stream split at every byte boundary must reassemble to the
  // same five frames — the all-positions version of the torn-read test.
  const std::vector<uint8_t> bytes = valid_frame_stream();
  for (std::size_t split = 1; split < bytes.size(); ++split) {
    net::FrameDecoder dec;
    dec.feed(bytes.data(), split);
    int frames = 0;
    net::Frame f;
    std::string line;
    while (dec.next(&f, &line) == net::FrameDecoder::Status::kFrame) ++frames;
    dec.feed(bytes.data() + split, bytes.size() - split);
    while (dec.next(&f, &line) == net::FrameDecoder::Status::kFrame) ++frames;
    ASSERT_EQ(frames, 5) << "split at byte " << split;
  }
}

// ---- STGW write-ahead log -------------------------------------------------

// Per-process paths: ctest runs every case of this binary as its own
// process, concurrently under -j.
const std::string kFuzzWalFile =
    "/tmp/stgraph_fuzz_" + std::to_string(::getpid()) + ".stgw";
const char* kFuzzWal = kFuzzWalFile.c_str();
const std::string kFuzzWalMutFile =
    "/tmp/stgraph_fuzz_mut_" + std::to_string(::getpid()) + ".stgw";
const char* kFuzzWalMut = kFuzzWalMutFile.c_str();

std::vector<uint8_t> valid_wal_bytes() {
  std::remove(kFuzzWal);
  {
    serve::wal::Writer w(kFuzzWal, /*truncate=*/true, /*sync_every=*/0);
    serve::wal::Record start;
    start.type = serve::wal::RecordType::kStart;
    start.time = 0;
    start.version = 1;
    start.features = Tensor::full({4, 3}, 0.5f);
    start.hidden = Tensor::full({4, 2}, 0.25f);
    w.append(start);
    for (uint32_t t = 1; t <= 3; ++t) {
      serve::wal::Record rec;
      rec.type = serve::wal::RecordType::kIngest;
      rec.time = t;
      rec.version = 1 + t;
      rec.delta.additions.emplace_back(t, (t + 1) % 4);
      if (t == 2) rec.delta.deletions.emplace_back(0, 1);
      rec.features = Tensor::full({4, 3}, 1.0f + static_cast<float>(t));
      w.append(rec);
    }
    w.sync();
  }
  return read_file(kFuzzWal);
}

TEST(FuzzFormats, StgwReaderSurvivesMutatedLogs) {
  const std::vector<uint8_t> pristine = valid_wal_bytes();
  ASSERT_FALSE(pristine.empty());
  {
    // Sanity: the pristine log reads back whole.
    const serve::wal::ReadResult rr = serve::wal::read(kFuzzWal);
    ASSERT_EQ(rr.records.size(), 4u);
    ASSERT_FALSE(rr.torn_tail);
  }
  const int iters = iterations(150);
  for (int i = 0; i < iters; ++i) {
    Rng rng(0x5354475700000000ull + static_cast<uint64_t>(i));  // "STGW"|i
    std::vector<uint8_t> bytes = pristine;
    const int n_mut = static_cast<int>(rng.below(4)) + 1;
    for (int m = 0; m < n_mut; ++m) mutate(bytes, rng);
    write_file(kFuzzWalMut, bytes);
    try {
      const serve::wal::ReadResult rr = serve::wal::read(kFuzzWalMut);
      // Whatever survived the mutation must be internally consistent: the
      // valid prefix never exceeds the file, and every decoded record is a
      // known type.
      EXPECT_LE(rr.valid_bytes, rr.total_bytes) << "iteration " << i;
      EXPECT_EQ(rr.total_bytes, bytes.size()) << "iteration " << i;
      for (const serve::wal::Record& rec : rr.records)
        EXPECT_TRUE(rec.type == serve::wal::RecordType::kStart ||
                    rec.type == serve::wal::RecordType::kIngest)
            << "iteration " << i;
    } catch (const StgError&) {
      // Clean rejection (bad magic/version, unreadable) is a valid outcome.
    }
  }
  std::remove(kFuzzWal);
  std::remove(kFuzzWalMut);
}

// ---- STGT training-state container ----------------------------------------

const std::string kFuzzTrainFile =
    "/tmp/stgraph_fuzz_" + std::to_string(::getpid()) + ".stgt";
const char* kFuzzTrain = kFuzzTrainFile.c_str();
const std::string kFuzzTrainMutFile =
    "/tmp/stgraph_fuzz_mut_" + std::to_string(::getpid()) + ".stgt";
const char* kFuzzTrainMut = kFuzzTrainMutFile.c_str();

std::vector<uint8_t> valid_train_state_bytes() {
  io::TrainState st;
  st.config_hash = 0xDEADBEEFCAFEF00Dull;
  st.epoch = 2;
  st.next_sequence = 17;
  st.lr = 5e-3f;
  st.optimizer_step_count = 41;
  nn::Parameter p;
  p.name = "layer.weight";
  p.tensor = Tensor::full({3, 5}, 0.125f);
  st.params.push_back(p);
  st.moment1.push_back(Tensor::full({3, 5}, 0.01f));
  st.moment2.push_back(Tensor::full({3, 5}, 0.02f));
  st.hidden = Tensor::full({4, 3}, 0.75f);
  st.epoch_loss_total = 1.5;
  st.epoch_steps = 17;
  io::save_train_state(st, kFuzzTrain);
  return read_file(kFuzzTrain);
}

TEST(FuzzFormats, StgtLoaderSurvivesMutatedContainers) {
  const std::vector<uint8_t> pristine = valid_train_state_bytes();
  ASSERT_FALSE(pristine.empty());
  {
    // Sanity: the pristine container round-trips.
    const io::TrainState st = io::load_train_state(kFuzzTrain);
    ASSERT_EQ(st.epoch, 2u);
    ASSERT_EQ(st.params.size(), 1u);
  }
  const int iters = iterations(150);
  for (int i = 0; i < iters; ++i) {
    Rng rng(0x5354475400000000ull + static_cast<uint64_t>(i));  // "STGT"|i
    std::vector<uint8_t> bytes = pristine;
    const int n_mut = static_cast<int>(rng.below(4)) + 1;
    for (int m = 0; m < n_mut; ++m) mutate(bytes, rng);
    write_file(kFuzzTrainMut, bytes);
    try {
      const io::TrainState st = io::load_train_state(kFuzzTrainMut);
      // A load that slipped past the CRC (mutation landed in slack space,
      // or recomputed to the same checksum — astronomically unlikely but
      // legal) must still be structurally sound.
      EXPECT_EQ(st.moment1.size(), st.params.size()) << "iteration " << i;
      EXPECT_EQ(st.moment2.size(), st.params.size()) << "iteration " << i;
    } catch (const StgError&) {
      // CRC/bounds rejection — the designed outcome for a torn container.
    }
  }
  std::remove(kFuzzTrain);
  std::remove(kFuzzTrainMut);
}

}  // namespace
}  // namespace stgraph
