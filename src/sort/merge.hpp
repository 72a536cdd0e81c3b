// Stable two-way merge, the kernel under the Fig. 2 merge tree
// (sort/balanced_merge.hpp) and the bitonic baseline's compare-split.
//
// Stability convention everywhere: on ties, elements of the first ("a")
// input precede elements of the second ("b") input.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <cstddef>
#include <span>

#include "common/assert.hpp"
#include "sort/comparator.hpp"

namespace pgxd::sort {

// Stable sequential merge of sorted ranges a and b into out
// (out.size() == a.size() + b.size(); out must not alias a or b).
template <typename T, typename Comp = Less>
void merge_into(std::span<const T> a, std::span<const T> b, std::span<T> out,
                Comp comp = {}) {
  PGXD_CHECK(out.size() == a.size() + b.size());
  std::size_t i = 0, j = 0, k = 0;
  while (i < a.size() && j < b.size())
    out[k++] = comp(b[j], a[i]) ? b[j++] : a[i++];
  while (i < a.size()) out[k++] = a[i++];
  while (j < b.size()) out[k++] = b[j++];
}

}  // namespace pgxd::sort
