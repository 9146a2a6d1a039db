#include "tsp/candidates.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "util/check.hpp"

namespace lptsp {

CandidateLists::CandidateLists(const MetricInstance& instance, int k, bool tie_aware)
    : n_(instance.n()) {
  LPTSP_REQUIRE(k >= 1, "candidate list length must be positive");
  k_ = std::min(k, n_ - 1);
  offsets_.assign(static_cast<std::size_t>(std::max(n_, 0)) + 1, 0);
  if (k_ <= 0) {
    k_ = 0;
    complete_ = true;  // n <= 1: the empty list trivially covers everyone
    return;
  }
  flat_.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_));
  complete_ = true;
  // The cheapest-tier census below is a dense min + count-equal scan of
  // each weight row; both primitives come from the ISA dispatch table
  // (scalar / AVX2 / AVX-512), split around the diagonal so the zero
  // self-weight never wins the min.
  const kernels::KernelTable& kt = kernels::kernels();
  std::vector<int> others;
  for (int v = 0; v < n_; ++v) {
    const Weight* wrow = instance.row(v);

    int limit = k_;
    bool within_tier = false;
    Weight cheapest = 0;
    if (tie_aware && limit < n_ - 1) {
      // Cheapest-tier census: if more than k partners sit at the minimum
      // weight, keep the whole tier (capped) — cutting inside a tier is
      // an arbitrary vertex-id decision, not a quality one.
      cheapest = std::min(kt.weight_range_min(wrow, v),
                          kt.weight_range_min(wrow + v + 1, n_ - v - 1));
      const int tier = kt.weight_range_count_eq(wrow, v, cheapest) +
                       kt.weight_range_count_eq(wrow + v + 1, n_ - v - 1, cheapest);
      limit = std::min(std::max(k_, std::min(tier, kTieCap)), n_ - 1);
      within_tier = limit <= tier;
    }

    if (within_tier) {
      // The whole list lies inside the cheapest tier, where the
      // (weight, id) order is plain id order: one linear scan emits it.
      for (int u = 0, taken = 0; taken < limit; ++u) {
        if (u != v && wrow[u] == cheapest) {
          flat_.push_back(u);
          ++taken;
        }
      }
    } else {
      others.reserve(static_cast<std::size_t>(n_) - 1);
      others.clear();
      for (int u = 0; u < n_; ++u) {
        if (u != v) others.push_back(u);
      }
      // (weight, id) is a strict total order, so selecting the `limit`
      // smallest and sorting only them yields exactly the sorted prefix.
      const auto cheaper = [wrow](int a, int b) {
        return wrow[a] != wrow[b] ? wrow[a] < wrow[b] : a < b;
      };
      const auto cut = others.begin() + limit;
      std::nth_element(others.begin(), cut, others.end(), cheaper);
      std::sort(others.begin(), cut, cheaper);
      flat_.insert(flat_.end(), others.begin(), cut);
    }
    offsets_[static_cast<std::size_t>(v) + 1] = static_cast<std::int64_t>(flat_.size());
    if (limit < n_ - 1) complete_ = false;
  }
}

}  // namespace lptsp
