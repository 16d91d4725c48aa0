// Network serving quickstart: bring up the full serving stack — a
// serve::Server with replicated readers behind a net::Frontend on
// loopback TCP — then talk to it over the wire with the binary client
// (predict / ingest / stats) and over the JSON fallback (what netcat
// speaks).
//
//   ./build/examples/serve_net_demo            scripted round trips, exits
//   ./build/examples/serve_net_demo --serve    keep serving until Enter;
//                                              try from another shell:
//       printf '{"op": "health"}\n' | nc 127.0.0.1 <port>
//       printf '{"op": "predict", "nodes": [0, 3]}\n' | nc 127.0.0.1 <port>
#include <iostream>
#include <string>

#include "gpma/gpma_graph.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace stgraph;

int main(int argc, char** argv) {
  const bool serve_forever = argc > 1 && std::string(argv[1]) == "--serve";

  // A 16-node ring with random TGCN weights — stand-in for a trained
  // checkpoint (a real deployment calls server.load("model.stgt")).
  constexpr uint32_t kNodes = 16;
  constexpr int64_t kFeat = 4, kHidden = 8;
  DtdgEvents ev;
  ev.num_nodes = kNodes;
  for (uint32_t i = 0; i < kNodes; ++i)
    ev.base_edges.emplace_back(i, (i + 1) % kNodes);
  GpmaGraph graph(ev);
  Rng rng(7);
  nn::TGCNEncoder model(kFeat, kHidden, rng);

  serve::ServeConfig cfg;
  cfg.num_readers = 2;  // replicated snapshot readers
  serve::Server server(graph, model, cfg);
  Tensor x0 = Tensor::zeros({kNodes, kFeat});
  for (int64_t i = 0; i < x0.numel(); ++i)
    x0.data()[i] = 0.05f * static_cast<float>(i % 11);
  server.start(x0);

  net::Frontend frontend(server);
  frontend.start();
  std::cout << "serving on 127.0.0.1:" << frontend.port() << " with "
            << server.num_readers() << " readers\n\n";

  // ---- binary protocol ----------------------------------------------------
  net::Client client("127.0.0.1", frontend.port());
  const net::PredictWire full = client.predict();
  std::cout << "PREDICT (all nodes): [" << full.outputs.rows() << " x "
            << full.outputs.cols() << "] at t=" << full.time << " v"
            << full.version << "\n";

  EdgeDelta delta;
  delta.additions = {{0, 8}, {3, 11}};
  Tensor x1 = Tensor::zeros({kNodes, kFeat});
  const net::IngestWire ing = client.ingest(delta, x1);
  std::cout << "INGEST  (+2 edges): now t=" << ing.time << " v" << ing.version
            << ", " << ing.num_edges << " edges\n";

  const net::PredictWire rows = client.predict({0, 8});
  std::cout << "PREDICT (nodes 0,8): first value " << rows.outputs.data()[0]
            << " at t=" << rows.time << "\n";
  std::cout << "STATS: " << client.stats_json().substr(0, 120) << "...\n\n";

  // ---- JSON fallback (the netcat path) ------------------------------------
  std::cout << "JSON health  -> " << client.json_round_trip("{\"op\": \"health\"}")
            << "\n";
  std::cout << "JSON predict -> "
            << client.json_round_trip("{\"op\": \"predict\", \"nodes\": [5]}")
            << "\n";

  if (serve_forever) {
    std::cout << "\npress Enter to stop...\n";
    std::cin.get();
  }
  frontend.stop();
  server.stop();
  std::cout << "done\n";
  return 0;
}
