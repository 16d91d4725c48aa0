// Vertex-centric tracing frontend — STGraph's analogue of Seastar's
// Python-level operator tracing. The user writes a function over a
// VertexContext using symbolic values; executing it once records the
// Program IR (no feature data is touched during tracing).
//
// Example (the GCN aggregation used by the TGCN layer):
//
//   Program p = trace([](VertexContext& v) {
//     auto msg = v.gcn_norm() * v.src_feature(0);
//     return v.agg_sum(msg).with_self_loop(v.gcn_norm());
//   });
#pragma once

#include <functional>

#include "compiler/ir.hpp"

namespace stgraph::compiler {

class VertexContext;

/// Symbolic per-edge coefficient expression (product of Coefs).
class CoefExpr {
 public:
  CoefExpr() = default;
  explicit CoefExpr(std::vector<Coef> coefs) : coefs_(std::move(coefs)) {}
  const std::vector<Coef>& coefs() const { return coefs_; }
  friend CoefExpr operator*(const CoefExpr& a, const CoefExpr& b) {
    std::vector<Coef> out = a.coefs_;
    out.insert(out.end(), b.coefs_.begin(), b.coefs_.end());
    return CoefExpr(std::move(out));
  }

 private:
  std::vector<Coef> coefs_;
};

/// Symbolic message expression: a sum of coef·feature terms.
class MsgExpr {
 public:
  MsgExpr() = default;
  explicit MsgExpr(std::vector<MessageTerm> terms) : terms_(std::move(terms)) {}
  const std::vector<MessageTerm>& terms() const { return terms_; }
  friend MsgExpr operator+(const MsgExpr& a, const MsgExpr& b) {
    std::vector<MessageTerm> out = a.terms_;
    out.insert(out.end(), b.terms_.begin(), b.terms_.end());
    return MsgExpr(std::move(out));
  }
  friend MsgExpr operator*(const CoefExpr& c, const MsgExpr& m) {
    std::vector<MessageTerm> out = m.terms_;
    for (MessageTerm& t : out)
      t.coefs.insert(t.coefs.end(), c.coefs().begin(), c.coefs().end());
    return MsgExpr(std::move(out));
  }

 private:
  std::vector<MessageTerm> terms_;
};

/// Builder for the aggregation result; allows chaining a self-loop term
/// and an output scale before the trace finishes.
class AggExpr {
 public:
  AggExpr(AggKind kind, MsgExpr msg) : kind_(kind), msg_(std::move(msg)) {}
  AggExpr& with_self_loop(const CoefExpr& coef, int input = 0);
  AggExpr& scaled(float s);

  AggKind kind() const { return kind_; }
  const MsgExpr& msg() const { return msg_; }
  bool has_self() const { return has_self_; }
  const CoefExpr& self_coef() const { return self_coef_; }
  int self_input() const { return self_input_; }
  float scale() const { return scale_; }

 private:
  AggKind kind_;
  MsgExpr msg_;
  bool has_self_ = false;
  CoefExpr self_coef_;
  int self_input_ = 0;
  float scale_ = 1.0f;
};

/// The symbolic vertex handed to the traced function.
class VertexContext {
 public:
  /// Feature vector of the message-producing neighbor, input slot `i`.
  MsgExpr src_feature(int i = 0) const;
  /// Symmetric GCN normalization 1/sqrt((din(u)+1)(din(v)+1)).
  CoefExpr gcn_norm() const;
  /// 1 / din(v) — plain mean over in-neighbors.
  CoefExpr inv_degree() const;
  /// 1 / (din(v)+1) — mean including the self loop.
  CoefExpr inv_degree_p1() const;
  /// Per-edge weight w[eid].
  CoefExpr edge_weight() const;
  CoefExpr constant(float c) const;

  AggExpr agg_sum(const MsgExpr& msg) const { return AggExpr(AggKind::kSum, msg); }
  AggExpr agg_mean(const MsgExpr& msg) const { return AggExpr(AggKind::kMean, msg); }
};

/// Trace a vertex-centric function into Program IR.
Program trace(const std::function<AggExpr(VertexContext&)>& fn);

// ---------------------------------------------------------------------------
// Elementwise-region tracing — the tape half of the fusing compiler.
//
// A cell describes its elementwise chain once, against symbolic values;
// executing the builder records an EwProgram in creation order:
//
//   EwProgram p = trace_elementwise([](EwTracer& t) {
//     return t.sigmoid(t.add(t.in(), t.in()));   // σ(a + b)
//   });
// ---------------------------------------------------------------------------

class EwTracer;

/// Symbolic value during elementwise tracing (a node id in the program
/// being built).
class EwExpr {
 public:
  EwExpr() = default;
  int id() const { return id_; }

 private:
  friend class EwTracer;
  EwExpr(EwTracer* t, int id) : tracer_(t), id_(id) {}
  EwTracer* tracer_ = nullptr;
  int id_ = -1;
};

/// Records the EwProgram as the traced function executes.
class EwTracer {
 public:
  /// Declare the next [N, F] input slot.
  EwExpr in();
  /// Declare the next [F] bias input slot (broadcast over rows).
  EwExpr in_bias();

  EwExpr add(EwExpr a, EwExpr b);
  EwExpr sub(EwExpr a, EwExpr b);
  EwExpr mul(EwExpr a, EwExpr b);
  EwExpr div(EwExpr a, EwExpr b);
  EwExpr add_scalar(EwExpr a, float s);
  EwExpr mul_scalar(EwExpr a, float s);
  EwExpr one_minus(EwExpr a);
  EwExpr sigmoid(EwExpr a);
  EwExpr tanh(EwExpr a);
  EwExpr relu(EwExpr a);
  EwExpr leaky_relu(EwExpr a, float slope = 0.01f);
  EwExpr exp(EwExpr a);
  /// x [N,F] + bias [F]; `bias` must come from in_bias().
  EwExpr add_bias(EwExpr x, EwExpr bias);

 private:
  friend EwProgram trace_elementwise(
      const std::function<EwExpr(EwTracer&)>& fn);
  EwExpr emit(EwOp op, int a, int b, float imm);
  EwProgram prog_;
};

/// Trace an elementwise builder into EwProgram IR (unoptimized; callers
/// run optimize_elementwise() from passes.hpp before compiling).
EwProgram trace_elementwise(const std::function<EwExpr(EwTracer&)>& fn);

}  // namespace stgraph::compiler
