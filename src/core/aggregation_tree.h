// The aggregation tree (Section 5.1).
//
// A dynamic, *unbalanced* binary split tree over the time-line
// [lo, kForever].  Each node carries one split timestamp, one partial
// aggregate state, and two child pointers — the paper's "more efficient,
// single timestamp per node variation" charged at 16 bytes per node in its
// memory study.  An internal node with split t divides its range [a, b]
// into left = [a, t] and right = [t+1, b]; a leaf owns its whole range and
// encodes one constant interval of the result.
//
// Inserting a tuple valid over [s, e] descends from the root:
//   * a node whose range lies completely inside [s, e] absorbs the tuple
//     into its partial state and recursion stops there (the paper's
//     "completely overlapped" shortcut, which is what makes long-lived
//     tuples cheap for this structure);
//   * a partially overlapped leaf splits — at s-1 when the tuple begins
//     inside the leaf, else at e — and descent continues into the fresh
//     children.
// Each unique timestamp adds at most one split, so a relation of n tuples
// yields at most 2n+1 leaves (constant intervals).
//
// The final value of a leaf is the Combine of every state on its root
// path; a depth-first walk therefore produces the result in time order.
// Sorted input degenerates the tree into a right spine and the build into
// O(n^2) — exactly the pathology the paper reports and the k-ordered
// variant (core/k_ordered_tree.h) repairs.

#pragma once

#include <vector>

#include "core/aggregates.h"
#include "core/node_arena.h"
#include "temporal/period.h"
#include "util/result.h"

namespace tagg {
namespace internal {

/// Shared machinery of the aggregation tree and the k-ordered aggregation
/// tree: node layout, insertion, in-order emission, subtree disposal.
/// State must be a trivially destructible value type.
template <typename Op>
struct SplitTree {
  using State = typename Op::State;
  using Input = typename Op::Input;

  struct Node {
    Instant split;
    State state;
    Node* left;
    Node* right;

    bool IsLeaf() const { return left == nullptr; }
  };

  NodeArena arena;
  Node* root;
  /// Lower bound of the root's range.  kOrigin for the plain tree; advances
  /// as the k-ordered variant garbage-collects finished prefixes.
  Instant lo;
  /// The aggregate operator.  Stateless for the standard monoids; carries
  /// configuration for composed operators like MultiOp.
  Op op;
  /// Nodes visited across all insertions (complexity instrumentation).
  size_t work_steps = 0;

  explicit SplitTree(Op op_instance = Op())
      : arena(sizeof(Node)), root(nullptr), lo(kOrigin),
        op(std::move(op_instance)) {
    root = NewLeaf();
  }

  Node* NewLeaf() {
    Node* n = static_cast<Node*>(arena.Allocate());
    n->split = 0;
    n->state = op.Identity();
    n->left = nullptr;
    n->right = nullptr;
    return n;
  }

  /// Inserts a tuple valid over [s, e] carrying `input`.  Iterative (an
  /// explicit stack) because a sorted relation drives the depth to O(n).
  void Add(Instant s, Instant e, Input input) {
    add_stack_.clear();
    add_stack_.push_back({root, lo, kForever});
    while (!add_stack_.empty()) {
      const Frame f = add_stack_.back();
      add_stack_.pop_back();
      ++work_steps;
      const Instant cs = s > f.lo ? s : f.lo;
      const Instant ce = e < f.hi ? e : f.hi;
      if (cs == f.lo && ce == f.hi) {
        // Node range completely overlapped: absorb and stop descending.
        op.Add(f.n->state, input);
        continue;
      }
      if (f.n->IsLeaf()) {
        // Partially overlapped leaf: split at the first boundary that
        // falls strictly inside the range.
        f.n->split = (cs > f.lo) ? cs - 1 : ce;
        f.n->left = NewLeaf();
        f.n->right = NewLeaf();
      }
      if (cs <= f.n->split) {
        add_stack_.push_back({f.n->left, f.lo, f.n->split});
      }
      if (ce > f.n->split) {
        add_stack_.push_back({f.n->right, f.n->split + 1, f.hi});
      }
    }
  }

  /// In-order walk of the subtree rooted at n covering [nlo, nhi], calling
  /// emit(leaf_lo, leaf_hi, state) with the path-combined state.  `acc` is
  /// the combined state of all ancestors of n.
  template <typename EmitFn>
  void EmitSubtree(const Node* n, Instant nlo, Instant nhi, State acc,
                   EmitFn&& emit) const {
    emit_stack_.clear();
    emit_stack_.push_back({n, nlo, nhi, acc});
    while (!emit_stack_.empty()) {
      const EmitFrame f = emit_stack_.back();
      emit_stack_.pop_back();
      const State combined = op.Combine(f.acc, f.n->state);
      if (f.n->IsLeaf()) {
        emit(f.lo, f.hi, combined);
        continue;
      }
      // Right pushed first so the left child is popped — and emitted —
      // first, giving time order.
      emit_stack_.push_back(
          {f.n->right, f.n->split + 1, f.hi, combined});
      emit_stack_.push_back({f.n->left, f.lo, f.n->split, combined});
    }
  }

  /// Recycles every node of the subtree rooted at n.
  void FreeSubtree(Node* n) {
    free_stack_.clear();
    free_stack_.push_back(n);
    while (!free_stack_.empty()) {
      Node* cur = free_stack_.back();
      free_stack_.pop_back();
      if (!cur->IsLeaf()) {
        free_stack_.push_back(cur->left);
        free_stack_.push_back(cur->right);
      }
      arena.Deallocate(cur);
    }
  }

  // --- introspection used by tests and the memory study ----------------

  size_t CountLeaves() const {
    size_t leaves = 0;
    std::vector<const Node*> stack{root};
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      if (n->IsLeaf()) {
        ++leaves;
      } else {
        stack.push_back(n->left);
        stack.push_back(n->right);
      }
    }
    return leaves;
  }

  size_t Depth() const {
    size_t max_depth = 0;
    std::vector<std::pair<const Node*, size_t>> stack{{root, 1}};
    while (!stack.empty()) {
      auto [n, d] = stack.back();
      stack.pop_back();
      if (d > max_depth) max_depth = d;
      if (!n->IsLeaf()) {
        stack.push_back({n->left, d + 1});
        stack.push_back({n->right, d + 1});
      }
    }
    return max_depth;
  }

  /// Checks the structural invariant: every internal node's split lies
  /// strictly inside its range.
  Status Validate() const {
    std::vector<EmitFrame> stack;
    stack.push_back({root, lo, kForever, op.Identity()});
    while (!stack.empty()) {
      const EmitFrame f = stack.back();
      stack.pop_back();
      if (f.lo > f.hi) return Status::Corruption("node with empty range");
      if (f.n->IsLeaf()) continue;
      if (f.n->split < f.lo || f.n->split >= f.hi) {
        return Status::Corruption("split outside node range");
      }
      stack.push_back({f.n->left, f.lo, f.n->split, op.Identity()});
      stack.push_back({f.n->right, f.n->split + 1, f.hi, op.Identity()});
    }
    return Status::OK();
  }

 private:
  struct Frame {
    Node* n;
    Instant lo;
    Instant hi;
  };
  struct EmitFrame {
    const Node* n;
    Instant lo;
    Instant hi;
    State acc;
  };
  // Scratch stacks reused across calls to avoid per-tuple allocation.
  std::vector<Frame> add_stack_;
  mutable std::vector<EmitFrame> emit_stack_;
  std::vector<Node*> free_stack_;
};

}  // namespace internal

/// The aggregation tree algorithm (Section 5.1): one pass over the
/// relation, arbitrary input order, best suited to randomly ordered
/// relations.
template <typename Op>
class AggregationTreeAggregator {
 public:
  using State = typename Op::State;

  explicit AggregationTreeAggregator(Op op = Op()) : tree_(std::move(op)) {}

  /// Folds one tuple into the tree.
  Status Add(const Period& valid, typename Op::Input input) {
    tree_.Add(valid.start(), valid.end(), input);
    ++tuples_;
    return Status::OK();
  }

  /// Depth-first emission of every constant interval, in time order.
  Result<std::vector<TypedInterval<State>>> FinishTyped() {
    std::vector<TypedInterval<State>> out;
    out.reserve(tree_.arena.live_nodes() / 2 + 1);
    tree_.EmitSubtree(tree_.root, tree_.lo, kForever, tree_.op.Identity(),
                      [&](Instant s, Instant e, State st) {
                        out.push_back({s, e, st});
                      });
    FillStats(out.size());
    return out;
  }

  const ExecutionStats& stats() const { return stats_; }

  /// Test access to the underlying tree.
  internal::SplitTree<Op>& tree() { return tree_; }

 private:
  void FillStats(size_t emitted) {
    stats_.tuples_processed = tuples_;
    stats_.relation_scans = 1;
    stats_.peak_live_nodes = tree_.arena.peak_live_nodes();
    stats_.peak_live_bytes = tree_.arena.peak_live_bytes();
    stats_.peak_paper_bytes = tree_.arena.peak_paper_bytes();
    stats_.nodes_allocated = tree_.arena.total_allocated_nodes();
    stats_.intervals_emitted = emitted;
    stats_.tree_depth = tree_.Depth();
    stats_.work_steps = tree_.work_steps;
  }

  internal::SplitTree<Op> tree_;
  size_t tuples_ = 0;
  ExecutionStats stats_;
};

}  // namespace tagg
