#include "tsp/local_search.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lptsp {

namespace {

/// Weight of the path edge entering position i from i-1, 0 at the ends.
Weight edge_before(const MetricInstance& instance, const Order& order, std::size_t i) {
  return i == 0 ? 0 : instance.weight_unchecked(order[i - 1], order[i]);
}

Weight edge_after(const MetricInstance& instance, const Order& order, std::size_t i) {
  return i + 1 >= order.size() ? 0 : instance.weight_unchecked(order[i], order[i + 1]);
}

std::ptrdiff_t diff(std::size_t i) { return static_cast<std::ptrdiff_t>(i); }

}  // namespace

bool two_opt_pass(const MetricInstance& instance, Order& order) {
  LPTSP_REQUIRE(is_valid_order(order, instance.n()), "order must be a permutation of vertices");
  const std::size_t n = order.size();
  if (n < 3) return false;
  bool improved = false;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (i == 0 && j == n - 1) continue;  // full reversal is a no-op
      // Reversing order[i..j] swaps the boundary edges (i-1,i),(j,j+1)
      // for (i-1,j),(i,j+1); interior edges only flip direction.
      const Weight removed = edge_before(instance, order, i) + edge_after(instance, order, j);
      const Weight added =
          (i == 0 ? 0 : instance.weight_unchecked(order[i - 1], order[j])) +
          (j + 1 >= n ? 0 : instance.weight_unchecked(order[i], order[j + 1]));
      if (added < removed) {
        std::reverse(order.begin() + diff(i), order.begin() + diff(j) + 1);
        improved = true;
      }
    }
  }
  return improved;
}

void two_opt(const MetricInstance& instance, Order& order) {
  while (two_opt_pass(instance, order)) {
  }
}

bool or_opt_pass(const MetricInstance& instance, Order& order, int max_segment) {
  LPTSP_REQUIRE(max_segment >= 1, "segment length must be positive");
  LPTSP_REQUIRE(is_valid_order(order, instance.n()), "order must be a permutation of vertices");
  const std::size_t n = order.size();
  if (n < 3) return false;
  bool improved = false;
  for (std::size_t seg_len = 1; seg_len <= static_cast<std::size_t>(max_segment); ++seg_len) {
    if (seg_len >= n) break;
    for (std::size_t s = 0; s + seg_len <= n; ++s) {
      const std::size_t e = s + seg_len - 1;  // inclusive segment end
      // Cost saved by splicing the segment out.
      const Weight bridge =
          (s > 0 && e + 1 < n) ? instance.weight_unchecked(order[s - 1], order[e + 1]) : 0;
      const Weight removal_gain =
          edge_before(instance, order, s) + edge_after(instance, order, e) - bridge;
      if (removal_gain <= 0) continue;

      // Find the best re-insertion point in the path without the segment.
      // The segment-free path ("rest") is never materialized: rest[t] is
      // order[t] before the cut and order[t + seg_len] after it, so the
      // scan reads order directly and the pass allocates nothing.
      const std::size_t rest_size = n - seg_len;
      const auto rest_at = [&](std::size_t t) {
        return t < s ? order[t] : order[t + seg_len];
      };
      const int seg_front = order[s];
      const int seg_back = order[e];

      Weight best_cost = 0;  // improvement threshold: beat removal_gain
      std::size_t best_position = 0;
      bool best_reversed = false;
      bool found = false;
      auto consider = [&](std::size_t position, Weight cost, bool reversed) {
        if (cost < removal_gain && (!found || cost < best_cost)) {
          best_cost = cost;
          best_position = position;
          best_reversed = reversed;
          found = true;
        }
      };
      // Insert before rest[0] or after rest[rest_size - 1].
      consider(0, instance.weight_unchecked(seg_back, rest_at(0)), false);
      consider(0, instance.weight_unchecked(seg_front, rest_at(0)), true);
      consider(rest_size, instance.weight_unchecked(rest_at(rest_size - 1), seg_front), false);
      consider(rest_size, instance.weight_unchecked(rest_at(rest_size - 1), seg_back), true);
      for (std::size_t t = 0; t + 1 < rest_size; ++t) {
        const int a = rest_at(t);
        const int b = rest_at(t + 1);
        const Weight base = instance.weight_unchecked(a, b);
        consider(t + 1,
                 instance.weight_unchecked(a, seg_front) +
                     instance.weight_unchecked(seg_back, b) - base,
                 false);
        consider(t + 1,
                 instance.weight_unchecked(a, seg_back) +
                     instance.weight_unchecked(seg_front, b) - base,
                 true);
      }
      if (!found) continue;
      // best_position == s re-creates the original location: forward is a
      // no-op, and so is a "reversed" single vertex (this mirrors the old
      // rest == order rejection without building either vector).
      if (best_position == s && (!best_reversed || seg_len == 1)) continue;
      // Splice in place: rotate the segment next to its target slot, then
      // orient it. rest position p maps to order index p (before the cut)
      // or p + seg_len (after it); either way the segment lands starting
      // at index best_position.
      const std::size_t seg_begin = best_position;
      if (best_position < s) {
        std::rotate(order.begin() + diff(best_position), order.begin() + diff(s),
                    order.begin() + diff(e) + 1);
      } else {
        std::rotate(order.begin() + diff(s), order.begin() + diff(e) + 1,
                    order.begin() + diff(best_position + seg_len));
      }
      if (best_reversed) {
        std::reverse(order.begin() + diff(seg_begin), order.begin() + diff(seg_begin + seg_len));
      }
      improved = true;
    }
  }
  return improved;
}

void or_opt(const MetricInstance& instance, Order& order, int max_segment) {
  while (or_opt_pass(instance, order, max_segment)) {
  }
}

void vnd(const MetricInstance& instance, Order& order, int max_segment) {
  while (true) {
    two_opt(instance, order);
    if (!or_opt_pass(instance, order, max_segment)) break;
  }
}

// ---------------------------------------------------------------------------
// PathOptimizer
// ---------------------------------------------------------------------------

PathOptimizer::PathOptimizer(const MetricInstance& instance, int k)
    : instance_(instance), owned_(instance, k), cand_(&owned_) {
  const std::size_t n = static_cast<std::size_t>(instance.n());
  pos_.assign(n, 0);
  queued_.assign(n, 0);
  queue_.reserve(n);
}

PathOptimizer::PathOptimizer(const MetricInstance& instance, const CandidateLists& candidates,
                             const std::atomic<bool>* cancel)
    : instance_(instance), cand_(&candidates), cancel_(cancel) {
  LPTSP_REQUIRE(candidates.n() == instance.n(),
                "candidate lists were built for a different instance size");
  const std::size_t n = static_cast<std::size_t>(instance.n());
  pos_.assign(n, 0);
  queued_.assign(n, 0);
  queue_.reserve(n);
}

void PathOptimizer::wake(int v) {
  if (!queued_[static_cast<std::size_t>(v)]) {
    queued_[static_cast<std::size_t>(v)] = 1;
    queue_.push_back(v);
    ++stats_.wakes;
  }
}

bool PathOptimizer::optimize(Order& order) {
  LPTSP_REQUIRE(is_valid_order(order, instance_.n()), "order must be a permutation of vertices");
  for (int v = 0; v < instance_.n(); ++v) wake(v);
  return run(order);
}

bool PathOptimizer::optimize(Order& order, const std::vector<int>& wake_vertices) {
  LPTSP_REQUIRE(is_valid_order(order, instance_.n()), "order must be a permutation of vertices");
  for (const int v : wake_vertices) {
    LPTSP_REQUIRE(v >= 0 && v < instance_.n(), "wake vertex out of range");
    wake(v);
  }
  return run(order);
}

bool PathOptimizer::run(Order& order) {
  for (std::size_t i = 0; i < order.size(); ++i) pos_[static_cast<std::size_t>(order[i])] =
      static_cast<int>(i);
  const auto cancelled = [this] {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  };
  while (!queue_.empty()) {
    const int x = queue_.back();
    queue_.pop_back();
    queued_[static_cast<std::size_t>(x)] = 0;
    // Re-anchor at x until no move anchored there improves; every applied
    // move re-wakes the vertices whose incident edges it changed. Cancel
    // is polled between moves, each of which leaves a valid order.
    do {
      if (cancelled()) {
        for (const int v : queue_) queued_[static_cast<std::size_t>(v)] = 0;
        queue_.clear();
        return false;
      }
    } while (improve_vertex(order, x));
  }
  return true;
}

bool PathOptimizer::improve_vertex(Order& order, int x) {
  return try_two_opt(order, x) || try_or_opt(order, x);
}

void PathOptimizer::apply_reversal(Order& order, std::size_t first, std::size_t last) {
  ++stats_.moves;
  std::reverse(order.begin() + diff(first), order.begin() + diff(last) + 1);
  for (std::size_t t = first; t <= last; ++t) {
    pos_[static_cast<std::size_t>(order[t])] = static_cast<int>(t);
  }
}

bool PathOptimizer::try_two_opt(Order& order, int x) {
  const std::size_t n = order.size();
  if (n < 3 || cand_->k() == 0) return false;
  const Weight* wx = instance_.row(x);
  const int* cands = cand_->of(x);
  const int k = cand_->count(x);

  // Successor form: both removed edges leave their position rightwards
  // ((o[i], o[i+1]) and (o[j], o[j+1])); reversing [i+1..j] replaces them
  // with (o[i], o[j]) and (o[i+1], o[j+1]). Any improving 2-opt move has a
  // new edge (x, c) cheaper than the edge it removes at x in one of the
  // two forms, so the ascending candidate scan can stop at the first
  // candidate at least as expensive as the removed edge.
  {
    const std::size_t px = static_cast<std::size_t>(pos_[static_cast<std::size_t>(x)]);
    if (px + 1 < n) {
      const Weight d1 = wx[order[px + 1]];
      for (int idx = 0; idx < k; ++idx) {
        const int c = cands[idx];
        const Weight wxc = wx[c];
        if (wxc >= d1) break;
        const std::size_t pc = static_cast<std::size_t>(pos_[static_cast<std::size_t>(c)]);
        const std::size_t i = std::min(px, pc);
        const std::size_t j = std::max(px, pc);
        if (j == i + 1) continue;  // single-element reversal, not a move
        const Weight removed =
            instance_.weight_unchecked(order[i], order[i + 1]) +
            (j + 1 < n ? instance_.weight_unchecked(order[j], order[j + 1]) : 0);
        const Weight added =
            wxc + (j + 1 < n ? instance_.weight_unchecked(order[i + 1], order[j + 1]) : 0);
        if (added < removed) {
          wake(order[i]);
          wake(order[i + 1]);
          wake(order[j]);
          if (j + 1 < n) wake(order[j + 1]);
          apply_reversal(order, i + 1, j);
          return true;
        }
      }
    }
  }
  // Predecessor form: removed edges (o[i-1], o[i]) and (o[j-1], o[j]);
  // reversing [i..j-1] replaces them with (o[i-1], o[j-1]) and (o[i], o[j]).
  {
    const std::size_t px = static_cast<std::size_t>(pos_[static_cast<std::size_t>(x)]);
    if (px > 0) {
      const Weight d1 = wx[order[px - 1]];
      for (int idx = 0; idx < k; ++idx) {
        const int c = cands[idx];
        const Weight wxc = wx[c];
        if (wxc >= d1) break;
        const std::size_t pc = static_cast<std::size_t>(pos_[static_cast<std::size_t>(c)]);
        const std::size_t i = std::min(px, pc);
        const std::size_t j = std::max(px, pc);
        if (j == i + 1) continue;
        const Weight removed =
            (i > 0 ? instance_.weight_unchecked(order[i - 1], order[i]) : 0) +
            instance_.weight_unchecked(order[j - 1], order[j]);
        const Weight added =
            wxc + (i > 0 ? instance_.weight_unchecked(order[i - 1], order[j - 1]) : 0);
        if (added < removed) {
          if (i > 0) wake(order[i - 1]);
          wake(order[i]);
          wake(order[j - 1]);
          wake(order[j]);
          apply_reversal(order, i, j - 1);
          return true;
        }
      }
    }
  }
  return false;
}

void PathOptimizer::apply_segment_move(Order& order, std::size_t s, std::size_t e, std::size_t pc,
                                       bool after, bool reversed) {
  ++stats_.moves;
  const std::size_t len = e - s + 1;
  std::size_t seg_begin;
  std::size_t lo;
  std::size_t hi;
  if (after) {
    if (pc < s) {
      seg_begin = pc + 1;
      std::rotate(order.begin() + diff(pc + 1), order.begin() + diff(s),
                  order.begin() + diff(e) + 1);
      lo = pc + 1;
      hi = e;
    } else {  // pc > e
      seg_begin = pc + 1 - len;
      std::rotate(order.begin() + diff(s), order.begin() + diff(e) + 1,
                  order.begin() + diff(pc) + 1);
      lo = s;
      hi = pc;
    }
  } else {
    if (pc < s) {
      seg_begin = pc;
      std::rotate(order.begin() + diff(pc), order.begin() + diff(s), order.begin() + diff(e) + 1);
      lo = pc;
      hi = e;
    } else {  // pc > e
      seg_begin = pc - len;
      std::rotate(order.begin() + diff(s), order.begin() + diff(e) + 1, order.begin() + diff(pc));
      lo = s;
      hi = pc - 1;
    }
  }
  if (reversed) {
    std::reverse(order.begin() + diff(seg_begin), order.begin() + diff(seg_begin + len));
  }
  for (std::size_t t = lo; t <= hi; ++t) {
    pos_[static_cast<std::size_t>(order[t])] = static_cast<int>(t);
  }
}

bool PathOptimizer::try_or_opt(Order& order, int x) {
  const std::size_t n = order.size();
  if (n < 3 || cand_->k() == 0) return false;
  const Weight* wx = instance_.row(x);
  const int* cands = cand_->of(x);
  const int k = cand_->count(x);
  for (int len = 1; len <= max_segment_; ++len) {
    if (static_cast<std::size_t>(len) >= n) break;
    // Segments with x at the front, and (for len > 1) with x at the back.
    for (int variant = 0; variant < (len == 1 ? 1 : 2); ++variant) {
      const std::size_t px = static_cast<std::size_t>(pos_[static_cast<std::size_t>(x)]);
      std::size_t s;
      std::size_t e;
      if (variant == 0) {
        s = px;
        e = px + static_cast<std::size_t>(len) - 1;
        if (e >= n) continue;
      } else {
        if (px + 1 < static_cast<std::size_t>(len)) continue;
        s = px - static_cast<std::size_t>(len) + 1;
        e = px;
      }
      const int seg_front = order[s];
      const int seg_back = order[e];
      const Weight gain =
          (s > 0 ? instance_.weight_unchecked(order[s - 1], order[s]) : 0) +
          (e + 1 < n ? instance_.weight_unchecked(order[e], order[e + 1]) : 0) -
          ((s > 0 && e + 1 < n) ? instance_.weight_unchecked(order[s - 1], order[e + 1]) : 0);
      if (gain <= 0) continue;
      const int old_prev = s > 0 ? order[s - 1] : -1;
      const int old_next = e + 1 < n ? order[e + 1] : -1;

      for (int idx = 0; idx < k; ++idx) {
        const int c = cands[idx];
        const std::size_t pc = static_cast<std::size_t>(pos_[static_cast<std::size_t>(c)]);
        if (pc >= s && pc <= e) continue;  // candidate inside the segment
        const Weight wxc = wx[c];

        // Slot A: insert right after c, x adjacent to c (x leads). The far
        // end connects to c's post-removal successor d. When the slot is
        // the segment's original location the delta works out to the pure
        // in-place reversal (or exactly 0 for the no-op), so no special
        // cases are needed — the strict < filter handles both.
        {
          const std::size_t d_idx = pc + 1 == s ? e + 1 : pc + 1;
          const int d = d_idx < n ? order[d_idx] : -1;
          const int far = variant == 0 ? seg_back : seg_front;
          const Weight delta = wxc + (d >= 0 ? instance_.weight_unchecked(far, d) : 0) -
                               (d >= 0 ? instance_.weight_unchecked(c, d) : 0) - gain;
          if (delta < 0) {
            wake(x);
            wake(c);
            wake(far);
            if (d >= 0) wake(d);
            if (old_prev >= 0) wake(old_prev);
            if (old_next >= 0) wake(old_next);
            apply_segment_move(order, s, e, pc, /*after=*/true, /*reversed=*/variant != 0);
            return true;
          }
        }
        // Slot B: insert right before c, x adjacent to c (x trails). The
        // far end connects to c's post-removal predecessor b.
        {
          const bool has_b = pc == e + 1 ? s > 0 : pc > 0;
          const int b = has_b ? (pc == e + 1 ? order[s - 1] : order[pc - 1]) : -1;
          const int far = variant == 0 ? seg_back : seg_front;
          const Weight delta = wxc + (b >= 0 ? instance_.weight_unchecked(b, far) : 0) -
                               (b >= 0 ? instance_.weight_unchecked(b, c) : 0) - gain;
          if (delta < 0) {
            wake(x);
            wake(c);
            wake(far);
            if (b >= 0) wake(b);
            if (old_prev >= 0) wake(old_prev);
            if (old_next >= 0) wake(old_next);
            apply_segment_move(order, s, e, pc, /*after=*/false, /*reversed=*/variant == 0);
            return true;
          }
        }
      }
    }
  }
  return false;
}

}  // namespace lptsp
