// Balanced aggregation tree (Section 7, future work).
//
// The paper's aggregation tree degenerates into a right spine — and into
// O(n^2) construction — when the relation is (almost) sorted by time.  Its
// future-work section proposes "a balanced aggregation tree, which should
// be especially efficient in the case of a k-ordered relation".  This
// module implements that proposal.
//
// The internal nodes of a split tree form a binary search tree over split
// timestamps, so classic AVL rotations apply.  The twist is the partial
// aggregate stored on each node: a rotation changes which range a node
// covers, so before rotating, both pivot nodes push their states down into
// their children (Combine), leaving themselves at the identity.  Every
// leaf's root-path combination — and therefore the result — is unchanged.
//
// Construction cost becomes O(n log n) regardless of input order, at the
// price of one extra height word per node and rotation work per insert.
// bench/bench_ablation_balanced.cc quantifies the trade against the
// paper's unbalanced tree and the sort + k-ordered strategy.

#pragma once

#include <vector>

#include "core/aggregates.h"
#include "core/node_arena.h"
#include "temporal/period.h"
#include "util/result.h"

namespace tagg {

/// AVL-balanced variant of the Section 5.1 aggregation tree.
template <typename Op>
class BalancedTreeAggregator {
 public:
  using State = typename Op::State;

  explicit BalancedTreeAggregator(Op op = Op())
      : BalancedTreeAggregator(kOrigin, kForever, std::move(op)) {}

  /// A tree over the domain [lo, hi] only: Add rejects a period outside
  /// it, and the output partitions it.  A period covering the whole
  /// domain lands on the root in one step instead of O(log n) nodes.
  BalancedTreeAggregator(Instant lo, Instant hi, Op op = Op())
      : op_(std::move(op)), arena_(sizeof(Node)), lo_(lo), hi_(hi) {
    root_ = NewLeaf();
  }

  Status Add(const Period& valid, typename Op::Input input) {
    if (valid.start() < lo_ || valid.end() > hi_) {
      return Status::InvalidArgument("period outside the tree's domain");
    }
    root_ = Insert(root_, lo_, hi_, valid.start(), valid.end(), input);
    ++tuples_;
    return Status::OK();
  }

  Result<std::vector<TypedInterval<State>>> FinishTyped() {
    std::vector<TypedInterval<State>> out;
    out.reserve(arena_.live_nodes() / 2 + 1);
    EmitAll([&](Instant s, Instant e, State st) { out.push_back({s, e, st}); });
    stats_.tuples_processed = tuples_;
    stats_.relation_scans = 1;
    stats_.peak_live_nodes = arena_.peak_live_nodes();
    stats_.peak_live_bytes = arena_.peak_live_bytes();
    stats_.peak_paper_bytes = arena_.peak_paper_bytes();
    stats_.nodes_allocated = arena_.total_allocated_nodes();
    stats_.intervals_emitted = out.size();
    stats_.work_steps = work_steps_;
    return out;
  }

  const ExecutionStats& stats() const { return stats_; }

  /// Height of the tree (test hook; must stay O(log n)).
  int height() const { return Height(root_); }

  /// Structural invariant check: AVL balance and splits inside ranges.
  Status Validate() const { return ValidateNode(root_, lo_, hi_); }

 private:
  struct Node {
    Instant split;
    State state;
    Node* left;
    Node* right;
    int height;  // 1 for leaves

    bool IsLeaf() const { return left == nullptr; }
  };

  Node* NewLeaf() {
    Node* n = static_cast<Node*>(arena_.Allocate());
    n->split = 0;
    n->state = op_.Identity();
    n->left = nullptr;
    n->right = nullptr;
    n->height = 1;
    return n;
  }

  static int Height(const Node* n) { return n->height; }

  static void UpdateHeight(Node* n) {
    const int hl = Height(n->left);
    const int hr = Height(n->right);
    n->height = (hl > hr ? hl : hr) + 1;
  }

  /// Moves n's partial state into both children; n becomes the identity.
  void PushDown(Node* n) {
    n->left->state = op_.Combine(n->left->state, n->state);
    n->right->state = op_.Combine(n->right->state, n->state);
    n->state = op_.Identity();
  }

  Node* RotateRight(Node* n) {
    PushDown(n);
    Node* c = n->left;
    PushDown(c);
    n->left = c->right;
    c->right = n;
    UpdateHeight(n);
    UpdateHeight(c);
    return c;
  }

  Node* RotateLeft(Node* n) {
    PushDown(n);
    Node* c = n->right;
    PushDown(c);
    n->right = c->left;
    c->left = n;
    UpdateHeight(n);
    UpdateHeight(c);
    return c;
  }

  Node* Rebalance(Node* n) {
    UpdateHeight(n);
    const int bf = Height(n->left) - Height(n->right);
    if (bf > 1) {
      if (Height(n->left->left) < Height(n->left->right)) {
        n->left = RotateLeft(n->left);
      }
      return RotateRight(n);
    }
    if (bf < -1) {
      if (Height(n->right->right) < Height(n->right->left)) {
        n->right = RotateRight(n->right);
      }
      return RotateLeft(n);
    }
    return n;
  }

  /// Recursive insert; depth is bounded by the AVL height, O(log n).
  Node* Insert(Node* n, Instant lo, Instant hi, Instant s, Instant e,
               typename Op::Input input) {
    ++work_steps_;
    const Instant cs = s > lo ? s : lo;
    const Instant ce = e < hi ? e : hi;
    if (cs == lo && ce == hi) {
      op_.Add(n->state, input);
      return n;
    }
    if (n->IsLeaf()) {
      n->split = (cs > lo) ? cs - 1 : ce;
      n->left = NewLeaf();
      n->right = NewLeaf();
    }
    if (cs <= n->split) n->left = Insert(n->left, lo, n->split, s, e, input);
    if (ce > n->split) {
      n->right = Insert(n->right, n->split + 1, hi, s, e, input);
    }
    return Rebalance(n);
  }

  template <typename EmitFn>
  void EmitAll(EmitFn&& emit) const {
    struct Frame {
      const Node* n;
      Instant lo;
      Instant hi;
      State acc;
    };
    std::vector<Frame> stack;
    stack.push_back({root_, lo_, hi_, op_.Identity()});
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      const State combined = op_.Combine(f.acc, f.n->state);
      if (f.n->IsLeaf()) {
        emit(f.lo, f.hi, combined);
        continue;
      }
      stack.push_back({f.n->right, f.n->split + 1, f.hi, combined});
      stack.push_back({f.n->left, f.lo, f.n->split, combined});
    }
  }

  Status ValidateNode(const Node* n, Instant lo, Instant hi) const {
    if (lo > hi) return Status::Corruption("node with empty range");
    if (n->IsLeaf()) {
      if (n->height != 1) return Status::Corruption("leaf height != 1");
      return Status::OK();
    }
    if (n->split < lo || n->split >= hi) {
      return Status::Corruption("split outside node range");
    }
    const int bf = Height(n->left) - Height(n->right);
    if (bf < -1 || bf > 1) {
      return Status::Corruption("AVL balance violated: factor " +
                                std::to_string(bf));
    }
    const int expect = 1 + (Height(n->left) > Height(n->right)
                                ? Height(n->left)
                                : Height(n->right));
    if (n->height != expect) return Status::Corruption("stale height");
    TAGG_RETURN_IF_ERROR(ValidateNode(n->left, lo, n->split));
    return ValidateNode(n->right, n->split + 1, hi);
  }

  Op op_;
  NodeArena arena_;
  Instant lo_;
  Instant hi_;
  Node* root_;
  size_t work_steps_ = 0;
  size_t tuples_ = 0;
  ExecutionStats stats_;
};

}  // namespace tagg
