// State Stack (paper §V-A2): the executor-owned LIFO that matches forward
// and backward passes over a training sequence. During the forward pass of
// timestamps t_1..t_N the executor pushes each timestamp's input tensors;
// the backward pass pops them in reverse order. Keeping this inside the
// framework (instead of relying on backend storage) is what keeps STGraph
// backend-agnostic.
//
// Push returns a ticket; pop requires the matching ticket so the LIFO
// discipline is enforced — a mismatched pop is a framework bug and throws.
//
// The memory optimization from the paper (compare forward vs backward IR
// and store only what backward needs) is applied by the callers: layers
// consult compiler::backward_needs() and push the pruned tensor set. The
// stack itself reports held device bytes so benches can attribute memory.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace stgraph::core {

class StateStack {
 public:
  using Ticket = uint64_t;

  /// Push one timestamp's saved tensors; returns the ticket the matching
  /// backward step must pop with.
  Ticket push(std::vector<Tensor> tensors);

  /// Pop the top entry. `expected` must be the ticket of the top entry
  /// (LIFO discipline violated otherwise).
  std::vector<Tensor> pop(Ticket expected);

  bool empty() const { return entries_.empty(); }
  std::size_t depth() const { return entries_.size(); }

  /// Drop every held entry (executor abort path): releases the saved
  /// tensors of a sequence whose backward pass will never run. Ticket
  /// numbering continues — outstanding tickets become permanently invalid.
  void clear() { entries_.clear(); }

  /// Bytes of tensor storage currently held alive by the stack.
  std::size_t device_bytes() const;

  /// High-water mark of device_bytes() since construction/reset.
  std::size_t peak_device_bytes() const { return peak_bytes_; }
  void reset_peak() { peak_bytes_ = device_bytes(); }

 private:
  struct Entry {
    Ticket ticket;
    std::vector<Tensor> tensors;
  };
  std::vector<Entry> entries_;
  Ticket next_ticket_ = 0;
  std::size_t peak_bytes_ = 0;
};

}  // namespace stgraph::core
