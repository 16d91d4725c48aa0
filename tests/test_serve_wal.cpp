// Durability tests for the serving runtime: WAL record framing
// (roundtrip, CRC rejection, torn-tail discipline, failed-append
// rollback), check_wal/stgraph_check-level validation, and
// Server::recover() — checkpoint + WAL replay must republish a read view
// bit-identical to the server that wrote the log.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "io/train_state.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace stgraph {
namespace {

constexpr int64_t kFeat = 5;
constexpr int64_t kHidden = 7;
// Per-process paths: ctest runs every case of this binary as its own
// process, concurrently under -j.
const std::string kWalFile =
    "/tmp/stgraph_test_serve_" + std::to_string(::getpid()) + ".stgw";
const char* kWal = kWalFile.c_str();
const std::string kCkptFile =
    "/tmp/stgraph_test_serve_wal_" + std::to_string(::getpid()) + ".stgt";
const char* kCkpt = kCkptFile.c_str();

class ServeWalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::disable_all();
    std::remove(kWal);
    std::remove(kCkpt);
  }
};

Tensor filled(int64_t rows, int64_t cols, float base) {
  Tensor t = Tensor::empty({rows, cols});
  for (int64_t i = 0; i < rows * cols; ++i)
    t.data()[i] = base + 0.25f * static_cast<float>(i);
  return t;
}

uint64_t file_size(const char* path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<uint64_t>(in.tellg()) : 0;
}

/// A start record plus two ingest records, written through the Writer.
std::vector<serve::wal::Record> write_sample_log() {
  std::vector<serve::wal::Record> recs(3);
  recs[0].type = serve::wal::RecordType::kStart;
  recs[0].time = 0;
  recs[0].version = 1;
  recs[0].features = filled(4, 3, 1.0f);
  recs[0].hidden = filled(4, 2, -2.0f);
  recs[1].type = serve::wal::RecordType::kIngest;
  recs[1].time = 1;
  recs[1].version = 2;
  recs[1].delta.additions = {{0, 2}, {1, 3}};
  recs[1].features = filled(4, 3, 5.0f);
  recs[2].type = serve::wal::RecordType::kIngest;
  recs[2].time = 2;
  recs[2].version = 3;
  recs[2].delta.deletions = {{0, 2}};
  recs[2].features = filled(4, 3, 9.0f);
  serve::wal::Writer w(kWal, /*truncate=*/true);
  for (const auto& r : recs) w.append(r);
  return recs;
}

void expect_tensor_eq(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

TEST_F(ServeWalTest, RecordsRoundtripBitExact) {
  const auto want = write_sample_log();
  const serve::wal::ReadResult rr = serve::wal::read(kWal);
  EXPECT_FALSE(rr.torn_tail);
  EXPECT_EQ(rr.valid_bytes, rr.total_bytes);
  ASSERT_EQ(rr.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(rr.records[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(rr.records[i].time, want[i].time) << "record " << i;
    EXPECT_EQ(rr.records[i].version, want[i].version) << "record " << i;
    EXPECT_EQ(rr.records[i].delta.additions, want[i].delta.additions);
    EXPECT_EQ(rr.records[i].delta.deletions, want[i].delta.deletions);
    expect_tensor_eq(rr.records[i].features, want[i].features, "features");
  }
  expect_tensor_eq(rr.records[0].hidden, want[0].hidden, "start hidden");
  EXPECT_TRUE(verify::check_wal(kWal).ok());
}

TEST_F(ServeWalTest, TornTailIsDetectedAndTruncatable) {
  write_sample_log();
  const uint64_t clean = file_size(kWal);
  {
    // A crash mid-append: half a record of garbage at the tail.
    std::ofstream out(kWal, std::ios::binary | std::ios::app);
    const char junk[] = "\x40\x00\x00\x00junkjun";
    out.write(junk, sizeof(junk) - 1);  // drop the terminator
  }
  serve::wal::ReadResult rr = serve::wal::read(kWal);
  EXPECT_TRUE(rr.torn_tail);
  EXPECT_EQ(rr.valid_bytes, clean);
  EXPECT_EQ(rr.records.size(), 3u);  // the valid prefix survives
  EXPECT_FALSE(verify::check_wal(kWal).ok());  // the auditor flags the tear

  serve::wal::truncate_torn_tail(kWal, rr);
  EXPECT_EQ(file_size(kWal), clean);
  rr = serve::wal::read(kWal);
  EXPECT_FALSE(rr.torn_tail);
  EXPECT_TRUE(verify::check_wal(kWal).ok());
}

TEST_F(ServeWalTest, CorruptedRecordStopsTheReplayAtTheLastValidPrefix) {
  write_sample_log();
  // Flip one payload byte of the final record.
  std::fstream f(kWal, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-3, std::ios::end);
  char b = 0;
  f.read(&b, 1);
  f.seekp(-3, std::ios::end);
  b = static_cast<char>(b ^ 0x5a);
  f.write(&b, 1);
  f.close();
  const serve::wal::ReadResult rr = serve::wal::read(kWal);
  EXPECT_TRUE(rr.torn_tail);  // CRC catches the flip; record 3 is dropped
  EXPECT_EQ(rr.records.size(), 2u);
}

TEST_F(ServeWalTest, HeaderProblemsAreHardErrors) {
  EXPECT_THROW(serve::wal::read("/tmp/stgraph_no_such_wal.stgw"), StgError);
  {
    std::ofstream out(kWal, std::ios::binary);
    out.write("STGX????", 8);
  }
  EXPECT_THROW(serve::wal::read(kWal), StgError);
  EXPECT_FALSE(verify::check_wal(kWal).ok());  // finding, not a throw
}

TEST_F(ServeWalTest, CheckWalFlagsNonMonotonicRecords) {
  std::vector<serve::wal::Record> recs = write_sample_log();
  {
    serve::wal::Writer w(kWal, /*truncate=*/true);
    w.append(recs[0]);
    serve::wal::Record bad = recs[1];
    bad.time = 5;      // does not advance t=0 by one
    bad.version = 1;   // not strictly greater than the start version
    w.append(bad);
  }
  const verify::Report r = verify::check_wal(kWal);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.findings().size(), 2u);
}

TEST_F(ServeWalTest, FailedAppendRollsTheFileBack) {
  write_sample_log();
  const uint64_t clean = file_size(kWal);
  serve::wal::Writer w(kWal, /*truncate=*/false);
  serve::wal::Record rec;
  rec.type = serve::wal::RecordType::kIngest;
  rec.time = 3;
  rec.version = 4;
  rec.features = filled(4, 3, 13.0f);
  failpoint::enable("serve.wal.append", failpoint::Spec::once());
  EXPECT_THROW(w.append(rec), StgError);
  EXPECT_EQ(file_size(kWal), clean);  // rolled back, no torn record
  EXPECT_TRUE(verify::check_wal(kWal).ok());
  w.append(rec);  // and the writer still works afterwards
  EXPECT_EQ(serve::wal::read(kWal).records.size(), 4u);
}

// ---- end-to-end recovery ---------------------------------------------------

DtdgEvents ring_events() {
  DtdgEvents ev;
  ev.num_nodes = 9;
  for (uint32_t i = 0; i < 9; ++i)
    ev.base_edges.emplace_back(i, (i + 1) % 9);
  EdgeDelta d1;
  d1.additions = {{0, 4}, {2, 6}};
  EdgeDelta d2;
  d2.deletions = {{0, 1}};
  d2.additions = {{1, 0}};
  EdgeDelta d3;
  d3.additions = {{3, 7}};
  d3.deletions = {{2, 6}};
  ev.deltas = {d1, d2, d3};
  return ev;
}

/// Checkpoint `model`'s weights so recover() can reinstall them.
void checkpoint_model(nn::TGCNEncoder& model) {
  io::TrainState st;
  st.params = model.parameters();
  for (const auto& p : st.params) {
    st.moment1.push_back(Tensor::zeros(p.tensor.shape()));
    st.moment2.push_back(Tensor::zeros(p.tensor.shape()));
  }
  io::save_train_state(st, kCkpt);
}

TEST_F(ServeWalTest, RecoverReplaysTheWalToABitIdenticalReadView) {
  const DtdgEvents events = ring_events();
  datasets::DynamicLoadOptions opts;
  opts.feature_size = kFeat;
  opts.link_samples_per_step = 8;
  const datasets::TemporalSignal sig = datasets::make_dynamic_signal(events, opts);
  const DtdgEvents base{events.num_nodes, events.base_edges, {}};

  // Reference run: journal every step, remember the outputs at each t.
  std::vector<Tensor> ref;
  serve::ReadView ref_view;
  {
    GpmaGraph graph(base);
    Rng rng(31);
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    checkpoint_model(model);
    serve::ServeConfig cfg;
    cfg.wal_path = kWal;
    serve::Server server(graph, model, cfg);
    server.load(kCkpt);
    server.start(sig.features[0]);
    for (uint32_t t = 0; t < events.num_timestamps(); ++t) {
      ref.push_back(server.predict().outputs.clone());
      if (t + 1 < events.num_timestamps())
        server.ingest(events.deltas[t], sig.features[t + 1]);
    }
    ref_view = server.read_view();
    const serve::StatsReport rep = server.stats();
    EXPECT_EQ(rep.wal_records, 1u + events.deltas.size());  // start + ingests
    EXPECT_GT(rep.wal_bytes, 0u);
    server.stop();  // the process "crashes" here as far as recovery cares
  }

  // Recovered run: fresh graph/model/server, rebuilt purely from
  // checkpoint + WAL.
  GpmaGraph graph2(base);
  Rng rng2(777);  // different init — recover() must overwrite it
  nn::TGCNEncoder model2(kFeat, kHidden, rng2);
  serve::Server server2(graph2, model2);
  server2.recover(kCkpt, kWal);

  const serve::ReadView got = server2.read_view();
  EXPECT_EQ(got.time, ref_view.time);
  EXPECT_EQ(got.version, ref_view.version);
  EXPECT_EQ(got.num_edges, ref_view.num_edges);
  serve::PredictResult res = server2.predict();
  EXPECT_EQ(res.timestamp, events.num_timestamps() - 1);
  expect_tensor_eq(res.outputs, ref.back(), "recovered outputs");

  const serve::StatsReport rep2 = server2.stats();
  EXPECT_EQ(rep2.recovered_records, 1u + events.deltas.size());
  EXPECT_GT(rep2.recovery_seconds, 0.0);

  // The recovered server keeps journaling into the same log: one more
  // (empty) ingest extends it, and the extended log recovers too.
  server2.ingest(EdgeDelta{}, sig.features[3]);
  server2.stop();
  const serve::wal::ReadResult rr = serve::wal::read(kWal);
  EXPECT_EQ(rr.records.size(), 2u + events.deltas.size());
  EXPECT_TRUE(verify::check_wal(kWal).ok());
}

TEST_F(ServeWalTest, RecoverTruncatesATornTailAndStillReplays) {
  const DtdgEvents events = ring_events();
  datasets::DynamicLoadOptions opts;
  opts.feature_size = kFeat;
  opts.link_samples_per_step = 8;
  const datasets::TemporalSignal sig = datasets::make_dynamic_signal(events, opts);
  const DtdgEvents base{events.num_nodes, events.base_edges, {}};

  Tensor want_out;
  {
    GpmaGraph graph(base);
    Rng rng(31);
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    checkpoint_model(model);
    serve::ServeConfig cfg;
    cfg.wal_path = kWal;
    serve::Server server(graph, model, cfg);
    server.load(kCkpt);
    server.start(sig.features[0]);
    server.ingest(events.deltas[0], sig.features[1]);
    want_out = server.predict().outputs.clone();
    server.stop();
  }
  {
    // kill -9 mid-append: garbage past the last durable record.
    std::ofstream out(kWal, std::ios::binary | std::ios::app);
    out.write("\x99\x00\x00\x00to", 6);
  }

  GpmaGraph graph2(base);
  Rng rng2(1);
  nn::TGCNEncoder model2(kFeat, kHidden, rng2);
  serve::Server server2(graph2, model2);
  server2.recover(kCkpt, kWal);
  EXPECT_EQ(server2.read_view().time, 1u);
  expect_tensor_eq(server2.predict().outputs, want_out, "post-tear outputs");
  server2.stop();
  // recover() truncated the tear: the log on disk is clean again.
  EXPECT_FALSE(serve::wal::read(kWal).torn_tail);
}

TEST_F(ServeWalTest, RecoverRefusesALogWithoutAStartRecord) {
  {
    serve::wal::Writer w(kWal, /*truncate=*/true);  // header only
  }
  const DtdgEvents events = ring_events();
  const DtdgEvents base{events.num_nodes, events.base_edges, {}};
  GpmaGraph graph(base);
  Rng rng(2);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  checkpoint_model(model);
  serve::Server server(graph, model);
  EXPECT_THROW(server.recover(kCkpt, kWal), StgError);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace stgraph
