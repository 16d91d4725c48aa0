// NOTE: this translation unit is built with -ffp-contract=off (see
// src/CMakeLists.txt): the fusing compiler's interpreter replays these
// formulas and the parity contract requires neither path to gain an FMA
// the other lacks. The GEMM kernel in tensor/gemm.cpp uses explicit fma.
#include "tensor/ops.hpp"

#include <cmath>

#include "autograd/engine.hpp"
#include "runtime/parallel.hpp"
#include "tensor/ew_scalar.hpp"
#include "tensor/gemm.hpp"
#include "tensor/op_profile.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::ops {
namespace {

using autograd::LambdaNode;

// Elementwise map kernel: out[i] = f(a[i]).
template <typename F>
Tensor unary_map(const Tensor& a, F f,
                 OpClass cls = OpClass::kElementwise) {
  Tensor out = Tensor::empty(a.shape());
  ProfileScope prof(cls, static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* pa = a.data();
  float* po = out.data();
  device::parallel_for_ranges(static_cast<std::size_t>(a.numel()),
                              [&](std::size_t b, std::size_t e) {
                                for (std::size_t i = b; i < e; ++i)
                                  po[i] = f(pa[i]);
                              });
  return out;
}

// Elementwise zip kernel: out[i] = f(a[i], b[i]).
template <typename F>
Tensor binary_map(const Tensor& a, const Tensor& b, F f,
                  OpClass cls = OpClass::kElementwise) {
  STG_CHECK(same_shape(a, b), "elementwise op shape mismatch: ",
            shape_str(a.shape()), " vs ", shape_str(b.shape()));
  Tensor out = Tensor::empty(a.shape());
  ProfileScope prof(cls, static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  device::parallel_for_ranges(static_cast<std::size_t>(a.numel()),
                              [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i)
                                  po[i] = f(pa[i], pb[i]);
                              });
  return out;
}

// Attach a lambda-backed autograd node consuming `inputs`.
template <typename Fn>
void attach(Tensor& out, const char* name,
            std::initializer_list<Tensor> inputs, Fn&& fn) {
  if (!NoGradGuard::grad_enabled()) return;
  auto node = std::make_shared<LambdaNode>(name, std::forward<Fn>(fn));
  bool any = false;
  for (const Tensor& t : inputs) any = node->add_input(t) || any;
  if (any) node->set_output(out);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = binary_map(a, b, [](float x, float y) { return x + y; });
  attach(out, "add", {a, b}, [](const Tensor& g) {
    return std::vector<Tensor>{g, g};
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = binary_map(a, b, [](float x, float y) { return x - y; });
  attach(out, "sub", {a, b}, [](const Tensor& g) {
    return std::vector<Tensor>{g, mul_scalar(g.detach(), -1.0f)};
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = binary_map(a, b, [](float x, float y) { return x * y; });
  // Save handles (shares storage, PyTorch-style) — keeps operands alive
  // until backward without copying.
  attach(out, "mul", {a, b}, [a, b](const Tensor& g) {
    NoGradGuard ng;
    return std::vector<Tensor>{mul(g, b), mul(g, a)};
  });
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = unary_map(a, [s](float x) { return x + s; });
  attach(out, "add_scalar", {a},
         [](const Tensor& g) { return std::vector<Tensor>{g}; });
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = unary_map(a, [s](float x) { return x * s; });
  attach(out, "mul_scalar", {a}, [s](const Tensor& g) {
    NoGradGuard ng;
    return std::vector<Tensor>{mul_scalar(g, s)};
  });
  return out;
}

Tensor div(const Tensor& a, const Tensor& b) {
  Tensor out = binary_map(a, b, [](float x, float y) { return x / y; });
  attach(out, "div", {a, b}, [a, b](const Tensor& g) {
    NoGradGuard ng;
    // d(a/b)/da = 1/b ; d(a/b)/db = -a/b².
    Tensor ga = div(g, b);
    Tensor gb = binary_map(a, b, [](float x, float y) { return -x / (y * y); });
    return std::vector<Tensor>{ga, mul(g, gb)};
  });
  return out;
}

Tensor scale(const Tensor& x, const Tensor& scalar) {
  STG_CHECK(scalar.defined() && scalar.numel() == 1,
            "scale expects a one-element scalar tensor");
  const float s = scalar.item();
  Tensor out = unary_map(x, [s](float v) { return v * s; });
  attach(out, "scale", {x, scalar}, [x, scalar](const Tensor& g) {
    NoGradGuard ng;
    Tensor gx = mul_scalar(g, scalar.item());
    // grad wrt the scalar = <g, x>.
    Tensor gs = sum(mul(g, x));
    return std::vector<Tensor>{gx, reshape(gs, scalar.shape())};
  });
  return out;
}

Tensor add_bias(const Tensor& x, const Tensor& bias) {
  STG_CHECK(x.dim() == 2 && bias.dim() == 1 && bias.size(0) == x.cols(),
            "add_bias expects x [N,F] and bias [F], got ",
            shape_str(x.shape()), " and ", shape_str(bias.shape()));
  Tensor out = Tensor::empty(x.shape());
  ProfileScope prof(OpClass::kElementwise,
                    static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* px = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  const std::size_t f = static_cast<std::size_t>(x.cols());
  device::parallel_for_ranges(
      static_cast<std::size_t>(x.rows()), [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r)
          for (std::size_t c = 0; c < f; ++c)
            po[r * f + c] = px[r * f + c] + pb[c];
      });
  const int64_t fcols = x.cols();
  attach(out, "add_bias", {x, bias}, [fcols](const Tensor& g) {
    // grad_bias = column sums of g.
    Tensor gb = Tensor::zeros({fcols});
    const float* pg = g.data();
    float* pgb = gb.data();
    const std::size_t f2 = static_cast<std::size_t>(fcols);
    const std::size_t rows = static_cast<std::size_t>(g.rows());
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < f2; ++c) pgb[c] += pg[r * f2 + c];
    return std::vector<Tensor>{g, gb};
  });
  return out;
}

Tensor one_minus(const Tensor& x) {
  Tensor out = unary_map(x, [](float v) { return 1.0f - v; });
  attach(out, "one_minus", {x}, [](const Tensor& g) {
    NoGradGuard ng;
    return std::vector<Tensor>{mul_scalar(g, -1.0f)};
  });
  return out;
}

Tensor sigmoid(const Tensor& x) {
  // Stable formula shared with the fused interpreter (tensor/ew_scalar.hpp).
  Tensor out = unary_map(x, ewmath::sigmoid, OpClass::kActivation);
  // Save the input handle and recompute σ at backward time: saving the
  // output handle inside its own grad node would create an ownership
  // cycle, and a detached copy would double activation memory.
  attach(out, "sigmoid", {x}, [x](const Tensor& g) {
    NoGradGuard ng;
    Tensor d = binary_map(
        x, g,
        [](float v, float gg) {
          const float y = ewmath::sigmoid(v);
          return gg * y * (1.0f - y);
        },
        OpClass::kActivation);
    return std::vector<Tensor>{d};
  });
  return out;
}

Tensor tanh_op(const Tensor& x) {
  Tensor out = unary_map(
      x, [](float v) { return std::tanh(v); }, OpClass::kActivation);
  attach(out, "tanh", {x}, [x](const Tensor& g) {
    NoGradGuard ng;
    Tensor d = binary_map(
        x, g,
        [](float v, float gg) {
          const float y = std::tanh(v);
          return gg * (1.0f - y * y);
        },
        OpClass::kActivation);
    return std::vector<Tensor>{d};
  });
  return out;
}

Tensor relu(const Tensor& x) {
  Tensor out = unary_map(x, ewmath::relu, OpClass::kActivation);
  attach(out, "relu", {x}, [x](const Tensor& g) {
    NoGradGuard ng;
    Tensor d = binary_map(
        x, g, [](float v, float gg) { return v > 0 ? gg : 0.0f; },
        OpClass::kActivation);
    return std::vector<Tensor>{d};
  });
  return out;
}

Tensor leaky_relu(const Tensor& x, float slope) {
  Tensor out = unary_map(
      x, [slope](float v) { return ewmath::leaky_relu(v, slope); },
      OpClass::kActivation);
  attach(out, "leaky_relu", {x}, [x, slope](const Tensor& g) {
    NoGradGuard ng;
    Tensor d = binary_map(
        x, g,
        [slope](float v, float gg) { return v > 0 ? gg : slope * gg; },
        OpClass::kActivation);
    return std::vector<Tensor>{d};
  });
  return out;
}

Tensor exp_op(const Tensor& x) {
  Tensor out = unary_map(
      x, [](float v) { return std::exp(v); }, OpClass::kActivation);
  attach(out, "exp", {x}, [x](const Tensor& g) {
    NoGradGuard ng;
    Tensor d = binary_map(
        x, g, [](float v, float gg) { return gg * std::exp(v); },
        OpClass::kActivation);
    return std::vector<Tensor>{d};
  });
  return out;
}

Tensor softmax(const Tensor& x) {
  STG_CHECK(x.dim() == 1 && x.numel() > 0, "softmax expects a rank-1 tensor");
  // Stable softmax: shift by the max.
  float mx = x.at(0);
  for (int64_t i = 1; i < x.numel(); ++i) mx = std::max(mx, x.at(i));
  Tensor out = unary_map(
      x, [mx](float v) { return std::exp(v - mx); }, OpClass::kActivation);
  float denom = 0;
  for (int64_t i = 0; i < out.numel(); ++i) denom += out.data()[i];
  for (int64_t i = 0; i < out.numel(); ++i) out.data()[i] /= denom;
  Tensor saved = out.detach();
  attach(out, "softmax", {x}, [saved](const Tensor& g) {
    NoGradGuard ng;
    // dL/dx_i = y_i (g_i - Σ_j g_j y_j).
    double dot = 0;
    for (int64_t j = 0; j < saved.numel(); ++j)
      dot += static_cast<double>(g.at(j)) * saved.at(j);
    Tensor gx = binary_map(saved, g, [dot](float y, float gg) {
      return y * (gg - static_cast<float>(dot));
    });
    return std::vector<Tensor>{gx};
  });
  return out;
}

Tensor element(const Tensor& x, int64_t index) {
  STG_CHECK(x.dim() == 1 && index >= 0 && index < x.numel(),
            "element(", index, ") on ", shape_str(x.shape()));
  Tensor out = Tensor::full({1}, x.at(index));
  const int64_t n = x.numel();
  attach(out, "element", {x}, [n, index](const Tensor& g) {
    Tensor gx = Tensor::zeros({n});
    gx.data()[index] = g.item();
    return std::vector<Tensor>{gx};
  });
  return out;
}

using detail::gemm;  // tensor/gemm.cpp — explicit fma chains

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  Tensor out = gemm(a, b, trans_a, trans_b);
  attach(out, "matmul", {a, b}, [a, b, trans_a, trans_b](const Tensor& g) {
    NoGradGuard ng;
    // C = op(A) op(B); standard transpose-case table for dA and dB.
    Tensor ga, gb;
    if (!trans_a) {
      ga = trans_b ? gemm(g, b, false, false) : gemm(g, b, false, true);
    } else {
      ga = trans_b ? gemm(b, g, true, true) : gemm(b, g, false, true);
    }
    if (!trans_b) {
      gb = trans_a ? gemm(a, g, false, false) : gemm(a, g, true, false);
    } else {
      gb = trans_a ? gemm(g, a, true, true) : gemm(g, a, true, false);
    }
    return std::vector<Tensor>{ga, gb};
  });
  return out;
}

Tensor cat_cols(const Tensor& a, const Tensor& b) {
  STG_CHECK(a.dim() == 2 && b.dim() == 2 && a.rows() == b.rows(),
            "cat_cols needs matching row counts: ", shape_str(a.shape()),
            " vs ", shape_str(b.shape()));
  const int64_t n = a.rows(), fa = a.cols(), fb = b.cols();
  Tensor out = Tensor::empty({n, fa + fb});
  profile_record(OpClass::kShape,
                 static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  device::parallel_for_ranges(
      static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          std::copy(pa + r * fa, pa + (r + 1) * fa, po + r * (fa + fb));
          std::copy(pb + r * fb, pb + (r + 1) * fb, po + r * (fa + fb) + fa);
        }
      });
  attach(out, "cat_cols", {a, b}, [n, fa, fb](const Tensor& g) {
    NoGradGuard ng;
    return std::vector<Tensor>{slice_cols(g, 0, fa),
                               slice_cols(g, fa, fa + fb)};
  });
  return out;
}

Tensor slice_cols(const Tensor& x, int64_t begin, int64_t end) {
  STG_CHECK(x.dim() == 2 && begin >= 0 && begin <= end && end <= x.cols(),
            "slice_cols [", begin, ",", end, ") on ", shape_str(x.shape()));
  const int64_t n = x.rows(), f = x.cols(), w = end - begin;
  Tensor out = Tensor::empty({n, w});
  profile_record(OpClass::kShape,
                 static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* px = x.data();
  float* po = out.data();
  device::parallel_for_ranges(
      static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r)
          std::copy(px + r * f + begin, px + r * f + end, po + r * w);
      });
  attach(out, "slice_cols", {x}, [n, f, begin, w](const Tensor& g) {
    Tensor gx = Tensor::zeros({n, f});
    const float* pg = g.data();
    float* pgx = gx.data();
    for (int64_t r = 0; r < n; ++r)
      std::copy(pg + r * w, pg + (r + 1) * w, pgx + r * f + begin);
    return std::vector<Tensor>{gx};
  });
  return out;
}

Tensor slice_rows(const Tensor& x, int64_t begin, int64_t end) {
  STG_CHECK(x.dim() == 2 && begin >= 0 && begin <= end && end <= x.rows(),
            "slice_rows [", begin, ",", end, ") on ", shape_str(x.shape()));
  const int64_t f = x.cols(), h = end - begin;
  Tensor out = Tensor::empty({h, f});
  profile_record(OpClass::kShape,
                 static_cast<uint64_t>(out.numel()) * sizeof(float));
  std::copy(x.data() + begin * f, x.data() + end * f, out.data());
  const int64_t rows = x.rows();
  attach(out, "slice_rows", {x}, [rows, f, begin, h](const Tensor& g) {
    Tensor gx = Tensor::zeros({rows, f});
    std::copy(g.data(), g.data() + h * f, gx.data() + begin * f);
    return std::vector<Tensor>{gx};
  });
  return out;
}

Tensor gather_rows(const Tensor& x, const std::vector<uint32_t>& index) {
  STG_CHECK(x.dim() == 2, "gather_rows needs a rank-2 tensor");
  const int64_t f = x.cols();
  const int64_t m = static_cast<int64_t>(index.size());
  Tensor out = Tensor::empty({m, f});
  profile_record(OpClass::kShape,
                 static_cast<uint64_t>(out.numel()) * sizeof(float));
  const float* px = x.data();
  float* po = out.data();
  device::parallel_for_ranges(
      static_cast<std::size_t>(m), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          STG_DCHECK(index[r] < static_cast<uint32_t>(x.rows()),
                     "gather_rows index out of range");
          std::copy(px + index[r] * f, px + (index[r] + 1) * f, po + r * f);
        }
      });
  const int64_t rows = x.rows();
  std::vector<uint32_t> idx = index;
  attach(out, "gather_rows", {x}, [rows, f, idx](const Tensor& g) {
    Tensor gx = Tensor::zeros({rows, f});
    const float* pg = g.data();
    float* pgx = gx.data();
    for (size_t r = 0; r < idx.size(); ++r)
      for (int64_t c = 0; c < f; ++c) pgx[idx[r] * f + c] += pg[r * f + c];
    return std::vector<Tensor>{gx};
  });
  return out;
}

Tensor reshape(const Tensor& x, Shape new_shape) {
  int64_t n = 1;
  for (int64_t d : new_shape) n *= d;
  STG_CHECK(n == x.numel(), "reshape to ", shape_str(new_shape),
            " from ", x.numel(), " elements");
  Tensor out = Tensor::empty(new_shape);
  profile_record(OpClass::kShape,
                 static_cast<uint64_t>(out.numel()) * sizeof(float));
  std::copy(x.data(), x.data() + x.numel(), out.data());
  Shape old = x.shape();
  attach(out, "reshape", {x}, [old](const Tensor& g) {
    NoGradGuard ng;
    return std::vector<Tensor>{reshape(g, old)};
  });
  return out;
}

Tensor sum(const Tensor& x) {
  ProfileScope prof(OpClass::kReduction, sizeof(float));
  const double total = device::parallel_reduce_sum(
      static_cast<std::size_t>(x.numel()),
      [p = x.data()](std::size_t i) { return static_cast<double>(p[i]); });
  Tensor out = Tensor::full({1}, static_cast<float>(total));
  Shape sh = x.shape();
  attach(out, "sum", {x}, [sh](const Tensor& g) {
    return std::vector<Tensor>{Tensor::full(sh, g.item())};
  });
  return out;
}

Tensor mean(const Tensor& x) {
  const int64_t n = x.numel();
  STG_CHECK(n > 0, "mean of empty tensor");
  Tensor s = sum(x);
  return mul_scalar(s, 1.0f / static_cast<float>(n));
}

Tensor row_sum(const Tensor& x) {
  STG_CHECK(x.dim() == 2, "row_sum needs a rank-2 tensor");
  const int64_t n = x.rows(), f = x.cols();
  Tensor out = Tensor::empty({n});
  ProfileScope prof(OpClass::kReduction,
                    static_cast<uint64_t>(n) * sizeof(float));
  const float* px = x.data();
  float* po = out.data();
  device::parallel_for_ranges(
      static_cast<std::size_t>(n), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          float acc = 0.0f;
          for (int64_t c = 0; c < f; ++c) acc += px[r * f + c];
          po[r] = acc;
        }
      });
  attach(out, "row_sum", {x}, [n, f](const Tensor& g) {
    Tensor gx = Tensor::empty({n, f});
    const float* pg = g.data();
    float* pgx = gx.data();
    for (int64_t r = 0; r < n; ++r)
      for (int64_t c = 0; c < f; ++c) pgx[r * f + c] = pg[r];
    return std::vector<Tensor>{gx};
  });
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  STG_CHECK(same_shape(pred, target), "mse_loss shape mismatch: ",
            shape_str(pred.shape()), " vs ", shape_str(target.shape()));
  const std::size_t n = static_cast<std::size_t>(pred.numel());
  ProfileScope prof(OpClass::kReduction, sizeof(float));
  const float* pp = pred.data();
  const float* pt = target.data();
  const double total = device::parallel_reduce_sum(n, [&](std::size_t i) {
    const double d = static_cast<double>(pp[i]) - pt[i];
    return d * d;
  });
  Tensor out = Tensor::full({1}, static_cast<float>(total / n));
  attach(out, "mse_loss", {pred}, [pred, target, n](const Tensor& g) {
    NoGradGuard ng;
    const float scale = 2.0f * g.item() / static_cast<float>(n);
    Tensor gp = binary_map(pred, target, [scale](float p, float t) {
      return scale * (p - t);
    });
    return std::vector<Tensor>{gp};
  });
  return out;
}

Tensor bce_with_logits_loss(const Tensor& logits, const Tensor& targets) {
  STG_CHECK(same_shape(logits, targets), "bce loss shape mismatch: ",
            shape_str(logits.shape()), " vs ", shape_str(targets.shape()));
  const std::size_t n = static_cast<std::size_t>(logits.numel());
  ProfileScope prof(OpClass::kReduction, sizeof(float));
  const float* pz = logits.data();
  const float* py = targets.data();
  const double total = device::parallel_reduce_sum(n, [&](std::size_t i) {
    // Stable form: max(z,0) - z y + log1p(exp(-|z|)).
    const double z = pz[i], y = py[i];
    return std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::abs(z)));
  });
  Tensor out = Tensor::full({1}, static_cast<float>(total / n));
  attach(out, "bce_with_logits", {logits}, [logits, targets, n](const Tensor& g) {
    NoGradGuard ng;
    const float scale = g.item() / static_cast<float>(n);
    Tensor gz = binary_map(logits, targets, [scale](float z, float y) {
      return scale * (ewmath::sigmoid(z) - y);
    });
    return std::vector<Tensor>{gz};
  });
  return out;
}

Tensor dropout(const Tensor& x, float p, Rng& rng, bool training) {
  STG_CHECK(p >= 0.0f && p < 1.0f, "dropout probability must be in [0, 1)");
  if (!training || p == 0.0f) return x;
  Tensor mask = Tensor::empty(x.shape());
  float* pm = mask.data();
  const float keep = 1.0f - p;
  for (int64_t i = 0; i < x.numel(); ++i)
    pm[i] = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;  // inverted dropout
  return mul(x, mask);
}

}  // namespace stgraph::ops
