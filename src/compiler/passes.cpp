#include "compiler/passes.hpp"

#include <algorithm>

namespace stgraph::compiler {
namespace {

// Fold kConst factors of a coef product into a single leading constant;
// non-const factors keep their order (they commute, but stable order keeps
// pass output deterministic and comparable).
std::vector<Coef> fold_product(const std::vector<Coef>& coefs) {
  float c = 1.0f;
  std::vector<Coef> rest;
  for (const Coef& k : coefs) {
    if (k.kind == CoefKind::kConst) {
      c *= k.value;
    } else {
      rest.push_back(k);
    }
  }
  std::vector<Coef> out;
  if (c != 1.0f || rest.empty()) out.push_back(Coef{CoefKind::kConst, c});
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

float leading_const(const std::vector<Coef>& coefs) {
  return (!coefs.empty() && coefs[0].kind == CoefKind::kConst) ? coefs[0].value
                                                               : 1.0f;
}

// Non-const tail of a folded product (for structural comparison).
std::vector<Coef> non_const(const std::vector<Coef>& coefs) {
  std::vector<Coef> out;
  for (const Coef& k : coefs)
    if (k.kind != CoefKind::kConst) out.push_back(k);
  return out;
}

}  // namespace

Program fold_constants(Program p) {
  for (MessageTerm& t : p.terms) t.coefs = fold_product(t.coefs);
  if (p.include_self) p.self_coefs = fold_product(p.self_coefs);
  return p;
}

Program lower_mean(Program p) {
  if (p.agg != AggKind::kMean) return p;
  p.agg = AggKind::kSum;
  for (MessageTerm& t : p.terms)
    t.coefs.push_back(Coef{CoefKind::kInvDegree, 1.0f});
  // The self term is not part of the neighbor mean; it is unchanged.
  return p;
}

Program dedup_terms(Program p) {
  std::vector<MessageTerm> merged;
  std::vector<float> consts;
  for (const MessageTerm& t : p.terms) {
    const std::vector<Coef> tail = non_const(t.coefs);
    const float c = leading_const(fold_product(t.coefs));
    bool found = false;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged[i].input == t.input && non_const(merged[i].coefs) == tail) {
        consts[i] += c;
        found = true;
        break;
      }
    }
    if (!found) {
      merged.push_back(t);
      consts.push_back(c);
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    std::vector<Coef> coefs;
    coefs.push_back(Coef{CoefKind::kConst, consts[i]});
    const std::vector<Coef> tail = non_const(merged[i].coefs);
    coefs.insert(coefs.end(), tail.begin(), tail.end());
    merged[i].coefs = fold_product(coefs);
  }
  p.terms = std::move(merged);
  return p;
}

Program eliminate_dead_terms(Program p) {
  auto dead = [](const MessageTerm& t) {
    return leading_const(t.coefs) == 0.0f;
  };
  p.terms.erase(std::remove_if(p.terms.begin(), p.terms.end(), dead),
                p.terms.end());
  if (p.include_self && leading_const(p.self_coefs) == 0.0f) {
    p.include_self = false;
    p.self_coefs.clear();
  }
  return p;
}

Program optimize(Program p) {
  p = lower_mean(std::move(p));
  p = fold_constants(std::move(p));
  p = dedup_terms(std::move(p));
  p = eliminate_dead_terms(std::move(p));
  return p;
}

// ---- elementwise-program passes ------------------------------------------

EwProgram ew_eliminate_common(EwProgram p) {
  std::vector<int> remap(p.nodes.size());
  std::vector<EwNode> kept;
  std::vector<int> kept_of;  // original index of each kept node
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    EwNode n = p.nodes[i];
    if (n.a >= 0) n.a = remap[static_cast<size_t>(n.a)];
    if (n.b >= 0) n.b = remap[static_cast<size_t>(n.b)];
    int found = -1;
    // Inputs are never merged: two in() calls are distinct runtime slots.
    if (n.op != EwOp::kInput) {
      for (size_t j = 0; j < kept.size(); ++j) {
        if (kept[j] == n) {
          found = static_cast<int>(j);
          break;
        }
      }
    }
    if (found >= 0) {
      remap[i] = found;
    } else {
      remap[i] = static_cast<int>(kept.size());
      kept.push_back(n);
      kept_of.push_back(static_cast<int>(i));
    }
  }
  for (int& o : p.outputs) o = remap[static_cast<size_t>(o)];
  p.nodes = std::move(kept);
  return p;
}

EwProgram ew_eliminate_dead(EwProgram p) {
  std::vector<bool> live(p.nodes.size(), false);
  for (int o : p.outputs) live[static_cast<size_t>(o)] = true;
  for (size_t i = p.nodes.size(); i-- > 0;) {
    if (!live[i]) continue;
    const EwNode& n = p.nodes[i];
    if (n.a >= 0) live[static_cast<size_t>(n.a)] = true;
    if (n.b >= 0) live[static_cast<size_t>(n.b)] = true;
  }
  // Keep every input node so the program's runtime arity is stable even
  // when an input ends up unused (its gradient is then identically zero).
  for (size_t i = 0; i < p.nodes.size(); ++i)
    if (p.nodes[i].op == EwOp::kInput) live[i] = true;
  std::vector<int> remap(p.nodes.size(), -1);
  std::vector<EwNode> kept;
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    if (!live[i]) continue;
    EwNode n = p.nodes[i];
    if (n.a >= 0) n.a = remap[static_cast<size_t>(n.a)];
    if (n.b >= 0) n.b = remap[static_cast<size_t>(n.b)];
    remap[i] = static_cast<int>(kept.size());
    kept.push_back(n);
  }
  for (int& o : p.outputs) o = remap[static_cast<size_t>(o)];
  p.nodes = std::move(kept);
  return p;
}

EwProgram optimize_elementwise(EwProgram p) {
  p = ew_eliminate_common(std::move(p));
  p = ew_eliminate_dead(std::move(p));
  return p;
}

}  // namespace stgraph::compiler
