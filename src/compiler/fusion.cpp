#include "compiler/fusion.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "autograd/engine.hpp"
#include "compiler/passes.hpp"
#include "runtime/device_buffer.hpp"
#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"
#include "tensor/ewmath.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace stgraph::compiler::fusion {
namespace {

std::atomic<ReplayFn> g_replay{nullptr};

// ---- bias-grad scratch arena ---------------------------------------------

/// Thread-local free list of DeviceAllocator-backed scratch buffers for the
/// pointwise bias gradients the backward program materializes before the
/// column reduction. Training backwards all run on the training thread, so
/// the steady state is one acquire → one reuse per step, zero allocation.
class ScratchArena {
 public:
  DeviceBuffer<float> acquire(std::size_t n) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->size() >= n) {
        DeviceBuffer<float> b = std::move(*it);
        free_.erase(it);
        return b;
      }
    }
    return DeviceBuffer<float>(n, MemCategory::kScratch);
  }

  void release(DeviceBuffer<float> b) {
    if (free_.size() < kMaxRetained) free_.push_back(std::move(b));
  }

 private:
  static constexpr std::size_t kMaxRetained = 8;
  std::vector<DeviceBuffer<float>> free_;
};

ScratchArena& scratch_arena() {
  thread_local ScratchArena a;
  return a;
}

// ---- autograd attachment --------------------------------------------------

template <typename Fn>
void attach(Tensor& out, const std::string& name,
            const std::vector<Tensor>& inputs, Fn&& fn) {
  if (!NoGradGuard::grad_enabled()) return;
  auto node =
      std::make_shared<autograd::LambdaNode>(name, std::forward<Fn>(fn));
  bool any = false;
  for (const Tensor& t : inputs) any = node->add_input(t) || any;
  if (any) node->set_output(out);
}

}  // namespace

ReplayFn replay() { return g_replay.load(std::memory_order_relaxed); }

void set_replay(ReplayFn fn) {
  g_replay.store(fn, std::memory_order_relaxed);
}

// ---- blocked interpreter --------------------------------------------------

namespace {

// One node's loop over a block: native vectors, then the block's tail
// through ScalarOps running the same lambda. Every Ops op is lane-exact, so
// where the split lands does not change a bit.
template <class O, class F>
void map1(float* r, const float* a, int len, F f) {
  constexpr int W = static_cast<int>(O::kWidth);
  int j = 0;
  for (; j + W <= len; j += W) O::store(r + j, f(O{}, O::load(a + j)));
  for (; j < len; ++j) r[j] = f(simd::ScalarOps{}, a[j]);
}

template <class O, class F>
void map2(float* r, const float* a, const float* b, int len, F f) {
  constexpr int W = static_cast<int>(O::kWidth);
  int j = 0;
  for (; j + W <= len; j += W)
    O::store(r + j, f(O{}, O::load(a + j), O::load(b + j)));
  for (; j < len; ++j) r[j] = f(simd::ScalarOps{}, a[j], b[j]);
}

/// Evaluate elements [lo, hi) in kEwBlock blocks. `in` holds one pointer
/// per input slot; a kBias slot points at the bias tiled past cols +
/// kEwBlock (see run_ew_program), so every input is read in place.
template <class O>
void run_range(const EwProgram& p, const float* const* in, int64_t cols,
               float* const* outputs, std::size_t lo, std::size_t hi) {
  const int nn = static_cast<int>(p.nodes.size());
  const EwNode* nodes = p.nodes.data();
  const EwInputKind* kinds = p.inputs.data();
  alignas(64) float reg[kMaxEwNodes][kEwBlock];
  const float* val[kMaxEwNodes];
  for (std::size_t base = lo; base < hi; base += kEwBlock) {
    const int len = static_cast<int>(std::min<std::size_t>(kEwBlock, hi - base));
    for (int ni = 0; ni < nn; ++ni) {
      const EwNode& n = nodes[ni];
      if (n.op == EwOp::kInput) {
        // Bias broadcast: element (base+j) reads column (base+j) % F.
        val[ni] = kinds[n.input] == EwInputKind::kMat
                      ? in[n.input] + base
                      : in[n.input] + base % static_cast<std::size_t>(cols);
        continue;
      }
      float* r = reg[ni];
      val[ni] = r;
      const float* a = n.a >= 0 ? val[n.a] : nullptr;
      const float* b = n.b >= 0 ? val[n.b] : nullptr;
      const float imm = n.imm;
      switch (n.op) {
        case EwOp::kInput:  // resolved to a pointer above
          break;
        case EwOp::kAdd:
        case EwOp::kAddBias:  // b is the broadcast bias row
          map2<O>(r, a, b, len,
                  [](auto o, auto x, auto y) { return decltype(o)::add(x, y); });
          break;
        case EwOp::kSub:
          map2<O>(r, a, b, len,
                  [](auto o, auto x, auto y) { return decltype(o)::sub(x, y); });
          break;
        case EwOp::kMul:
          map2<O>(r, a, b, len,
                  [](auto o, auto x, auto y) { return decltype(o)::mul(x, y); });
          break;
        case EwOp::kDiv:
          map2<O>(r, a, b, len,
                  [](auto o, auto x, auto y) { return decltype(o)::div(x, y); });
          break;
        case EwOp::kAddS:
          map1<O>(r, a, len, [imm](auto o, auto x) {
            using P = decltype(o);
            return P::add(x, P::set1(imm));
          });
          break;
        case EwOp::kMulS:
          map1<O>(r, a, len, [imm](auto o, auto x) {
            using P = decltype(o);
            return P::mul(x, P::set1(imm));
          });
          break;
        case EwOp::kNeg:
          map1<O>(r, a, len, [](auto o, auto x) { return decltype(o)::neg(x); });
          break;
        case EwOp::kOneMinus:
          map1<O>(r, a, len, [](auto o, auto x) {
            using P = decltype(o);
            return P::sub(P::set1(1.0f), x);
          });
          break;
        case EwOp::kSigmoid:
          if constexpr (O::kWidth > 1) {
            ewmath::sigmoid(a, r, static_cast<std::size_t>(len));
          } else {
            for (int j = 0; j < len; ++j) r[j] = ewmath::sigmoid(a[j]);
          }
          break;
        case EwOp::kTanh:
          if constexpr (O::kWidth > 1) {
            ewmath::tanh(a, r, static_cast<std::size_t>(len));
          } else {
            for (int j = 0; j < len; ++j) r[j] = ewmath::tanh(a[j]);
          }
          break;
        case EwOp::kRelu:
          map1<O>(r, a, len, [](auto o, auto x) {
            using P = decltype(o);
            return P::blend(P::zero(), x, P::cmp_gt(x, P::zero()));
          });
          break;
        case EwOp::kLeakyRelu:
          map1<O>(r, a, len, [imm](auto o, auto x) {
            using P = decltype(o);
            return P::blend(P::mul(P::set1(imm), x), x,
                            P::cmp_gt(x, P::zero()));
          });
          break;
        case EwOp::kExp:
          for (int j = 0; j < len; ++j) r[j] = std::exp(a[j]);
          break;
        case EwOp::kReluGrad:
          // a = forward input x, b = incoming gradient.
          map2<O>(r, a, b, len, [](auto o, auto x, auto g) {
            using P = decltype(o);
            return P::blend(P::zero(), g, P::cmp_gt(x, P::zero()));
          });
          break;
        case EwOp::kLeakyGrad:
          map2<O>(r, a, b, len, [imm](auto o, auto x, auto g) {
            using P = decltype(o);
            return P::blend(P::mul(P::set1(imm), g), g,
                            P::cmp_gt(x, P::zero()));
          });
          break;
      }
    }
    for (std::size_t oi = 0; oi < p.outputs.size(); ++oi)
      std::memcpy(outputs[oi] + base, val[p.outputs[oi]],
                  static_cast<std::size_t>(len) * sizeof(float));
  }
}

}  // namespace

void run_ew_program(const EwProgram& p, const float* const* inputs,
                    int64_t rows, int64_t cols, float* const* outputs) {
  const int nn = static_cast<int>(p.nodes.size());
  STG_CHECK(nn <= kMaxEwNodes, "elementwise program too large: ", nn,
            " nodes (max ", kMaxEwNodes, ")");
  const std::size_t total =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (total == 0) return;
  // Each bias slot tiled to cols + kEwBlock floats: a block starting at
  // column c then reads its broadcast row contiguously from tile + c.
  const std::size_t nin = p.inputs.size();
  const std::size_t tile = static_cast<std::size_t>(cols) + kEwBlock;
  std::vector<const float*> in(inputs, inputs + nin);
  std::vector<float> tiles(
      tile * static_cast<std::size_t>(std::count(
                 p.inputs.begin(), p.inputs.end(), EwInputKind::kBias)));
  for (std::size_t i = 0, t = 0; i < nin; ++i) {
    if (p.inputs[i] != EwInputKind::kBias) continue;
    float* dst = tiles.data() + t;
    for (std::size_t k = 0; k < tile; ++k)
      dst[k] = inputs[i][k % static_cast<std::size_t>(cols)];
    in[i] = dst;
    t += tile;
  }
  device::parallel_for_ranges(total, [&](std::size_t lo, std::size_t hi) {
    run_range<simd::NativeOps>(p, in.data(), cols, outputs, lo, hi);
  });
}

// ---- FusedOp ---------------------------------------------------------------

FusedOp::FusedOp(std::string name,
                 const std::function<EwExpr(EwTracer&)>& build)
    : name_(std::move(name)) {
  fwd_ = optimize_elementwise(trace_elementwise(build));
  auto exec = std::make_shared<Exec>();
  exec->bwd = differentiate_elementwise(fwd_);
  // The executed forward additionally materializes every transcendental
  // value the backward wants to read back (kEwBlock-sized register blocks
  // spill to [N,F] buffers the backward takes as inputs). A saved node
  // that IS the program output still gets its own buffer: capturing the
  // output tensor inside its own grad node would create an ownership
  // cycle (tensor → grad_fn → closure → tensor) and leak the pair.
  exec->fwd = fwd_;
  for (int sid : exec->bwd.saved) exec->fwd.outputs.push_back(sid);
  STG_CHECK(static_cast<int>(fwd_.nodes.size()) <= kMaxEwNodes &&
                static_cast<int>(exec->bwd.prog.nodes.size()) <= kMaxEwNodes,
            "fused region ", name_, " exceeds the interpreter node budget");
  exec_ = std::move(exec);
}

Tensor FusedOp::operator()(const std::vector<Tensor>& inputs) const {
  STG_CHECK(inputs.size() == static_cast<std::size_t>(fwd_.num_inputs()),
            "fused op ", name_, ": expected ", fwd_.num_inputs(),
            " inputs, got ", inputs.size());
  int64_t rows = -1, cols = -1;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor& t = inputs[i];
    STG_CHECK(t.defined(), "fused op ", name_, ": undefined input ", i);
    if (fwd_.inputs[i] == EwInputKind::kMat) {
      STG_CHECK(t.dim() == 2, "fused op ", name_, ": input ", i,
                " must be rank-2");
      if (rows < 0) {
        rows = t.rows();
        cols = t.cols();
      } else {
        STG_CHECK(t.rows() == rows && t.cols() == cols, "fused op ", name_,
                  ": input ", i, " shape mismatch");
      }
    }
  }
  STG_CHECK(rows >= 0, "fused op ", name_,
            ": program has no matrix input");
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (fwd_.inputs[i] == EwInputKind::kBias)
      STG_CHECK(inputs[i].dim() == 1 && inputs[i].numel() == cols,
                "fused op ", name_, ": bias input ", i, " must be [", cols,
                "]");

  if (const ReplayFn r = replay()) return r(fwd_, inputs);

  if (rows == 0 || cols == 0) {
    // Nothing to evaluate: an empty output, and zero gradients (an empty
    // [0,F] or an all-zero bias sum) without launching.
    Tensor out = Tensor::empty({rows, cols});
    attach(out, name_, inputs,
           [inputs, grad_slots = exec_->bwd.input_grads](const Tensor&) {
             std::vector<Tensor> grads(inputs.size());
             for (std::size_t i = 0; i < inputs.size(); ++i)
               if (grad_slots[i] >= 0)
                 grads[i] = Tensor::zeros(inputs[i].shape());
             return grads;
           });
    return out;
  }

  Tensor out = Tensor::empty({rows, cols});
  // Saved transcendental values (the tape's saved-output VJP analogue):
  // extra forward outputs the backward reads instead of re-evaluating the
  // exponentials. Each lives in its own buffer — never the output tensor
  // itself, which would cycle through its grad node and leak.
  std::vector<Tensor> saved_vals;
  saved_vals.reserve(exec_->bwd.saved.size());
  {
    std::vector<float*> outps;
    outps.reserve(exec_->fwd.outputs.size());
    outps.push_back(out.data());
    uint64_t fwd_bytes = static_cast<uint64_t>(out.numel()) * sizeof(float);
    for (std::size_t j = 0; j < exec_->bwd.saved.size(); ++j) {
      Tensor s = Tensor::empty({rows, cols});
      outps.push_back(s.data());
      saved_vals.push_back(std::move(s));
      fwd_bytes += static_cast<uint64_t>(rows * cols) * sizeof(float);
    }
    ops::ProfileScope ps(ops::OpClass::kFused, fwd_bytes);
    std::vector<const float*> ins(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) ins[i] = inputs[i].data();
    run_ew_program(exec_->fwd, ins.data(), rows, cols, outps.data());
  }

  attach(out, name_, inputs,
         [exec = exec_, rows, cols, inputs, saved_vals](const Tensor& g) {
           const std::size_t nin = inputs.size();
           std::vector<const float*> ins(nin + 1 + saved_vals.size());
           for (std::size_t i = 0; i < nin; ++i) ins[i] = inputs[i].data();
           ins[nin] = g.data();
           for (std::size_t j = 0; j < saved_vals.size(); ++j)
             ins[nin + 1 + j] = saved_vals[j].data();

           std::vector<Tensor> grads(nin);  // undefined = zero gradient
           std::vector<float*> outs;
           // kBias gradients come out pointwise [N,F]; park them in arena
           // scratch, then column-reduce below.
           std::vector<std::pair<std::size_t, DeviceBuffer<float>>> bias_tmp;
           uint64_t out_bytes = 0;
           for (std::size_t slot = 0; slot < nin; ++slot) {
             if (exec->bwd.input_grads[slot] < 0) continue;
             if (exec->fwd.inputs[slot] == EwInputKind::kMat) {
               grads[slot] = Tensor::empty({rows, cols});
               outs.push_back(grads[slot].data());
               out_bytes +=
                   static_cast<uint64_t>(rows * cols) * sizeof(float);
             } else {
               DeviceBuffer<float> buf = scratch_arena().acquire(
                   static_cast<std::size_t>(rows) *
                   static_cast<std::size_t>(cols));
               outs.push_back(buf.data());
               bias_tmp.emplace_back(slot, std::move(buf));
               out_bytes += static_cast<uint64_t>(cols) * sizeof(float);
             }
           }
           {
             ops::ProfileScope ps(ops::OpClass::kFused, out_bytes);
             run_ew_program(exec->bwd.prog, ins.data(), rows, cols,
                            outs.data());
             for (auto& [slot, buf] : bias_tmp) {
               // The reduce ops::add_bias's backward uses (same bits).
               grads[slot] = Tensor::empty({cols});
               ops::detail::column_sums(buf.data(), rows, cols,
                                        grads[slot].data());
             }
           }
           for (auto& [slot, buf] : bias_tmp)
             scratch_arena().release(std::move(buf));
           return grads;
         });
  return out;
}

// ---- cell regions ----------------------------------------------------------
// in() calls are sequenced as statements: C++ does not order function
// argument evaluation, and input slots must be assigned left-to-right.

Tensor sigmoid_add(const Tensor& a, const Tensor& b) {
  static const FusedOp op("fused_sigmoid_add", [](EwTracer& t) {
    EwExpr x = t.in();
    EwExpr y = t.in();
    return t.sigmoid(t.add(x, y));
  });
  return op({a, b});
}

Tensor tanh_add(const Tensor& a, const Tensor& b) {
  static const FusedOp op("fused_tanh_add", [](EwTracer& t) {
    EwExpr x = t.in();
    EwExpr y = t.in();
    return t.tanh(t.add(x, y));
  });
  return op({a, b});
}

Tensor gate_combine(const Tensor& z, const Tensor& h, const Tensor& c) {
  static const FusedOp op("fused_gate_combine", [](EwTracer& t) {
    EwExpr z_ = t.in();
    EwExpr h_ = t.in();
    EwExpr c_ = t.in();
    EwExpr zh = t.mul(z_, h_);
    EwExpr omz = t.one_minus(z_);
    EwExpr omc = t.mul(omz, c_);
    return t.add(zh, omc);
  });
  return op({z, h, c});
}

Tensor lstm_cell_state(const Tensor& f, const Tensor& c, const Tensor& i,
                       const Tensor& g) {
  static const FusedOp op("fused_lstm_cell_state", [](EwTracer& t) {
    EwExpr f_ = t.in();
    EwExpr c_ = t.in();
    EwExpr i_ = t.in();
    EwExpr g_ = t.in();
    EwExpr fc = t.mul(f_, c_);
    EwExpr ig = t.mul(i_, g_);
    return t.add(fc, ig);
  });
  return op({f, c, i, g});
}

Tensor mul_tanh(const Tensor& o, const Tensor& c) {
  static const FusedOp op("fused_mul_tanh", [](EwTracer& t) {
    EwExpr o_ = t.in();
    EwExpr c_ = t.in();
    return t.mul(o_, t.tanh(c_));
  });
  return op({o, c});
}

Tensor bias_sigmoid(const Tensor& x, const Tensor& bias) {
  static const FusedOp op("fused_bias_sigmoid", [](EwTracer& t) {
    EwExpr x_ = t.in();
    EwExpr b_ = t.in_bias();
    return t.sigmoid(t.add_bias(x_, b_));
  });
  return op({x, bias});
}

Tensor bias_tanh(const Tensor& x, const Tensor& bias) {
  static const FusedOp op("fused_bias_tanh", [](EwTracer& t) {
    EwExpr x_ = t.in();
    EwExpr b_ = t.in_bias();
    return t.tanh(t.add_bias(x_, b_));
  });
  return op({x, bias});
}

}  // namespace stgraph::compiler::fusion
