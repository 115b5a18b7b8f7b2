#include "graph/delta.h"

#include <algorithm>

namespace grimp {

void MergeSortedRuns(
    int64_t begin, int64_t end, const int32_t* base_offsets,
    const int32_t* base_indices, int64_t base_nodes,
    const std::vector<std::pair<int32_t, int32_t>>& sorted_edges,
    std::vector<int32_t>* offsets, std::vector<int32_t>* indices) {
  const int64_t n = end - begin;
  GRIMP_CHECK(base_nodes >= 0 && base_nodes <= n);
  const int32_t edge_base = base_nodes > 0 ? base_offsets[0] : 0;
  // Node i's (range-local) base run starts at base_indices[run(i)].
  const auto run = [&](int64_t i) {
    return base_offsets[static_cast<size_t>(i)] - edge_base;
  };
  offsets->clear();
  offsets->reserve(static_cast<size_t>(n) + 1);
  indices->clear();
  const int32_t base_edges = base_nodes > 0 ? run(base_nodes) : 0;
  indices->reserve(static_cast<size_t>(base_edges) + sorted_edges.size());

  size_t d = 0;  // cursor into sorted_edges
  offsets->push_back(0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = begin + i;
    if (d >= sorted_edges.size() || sorted_edges[d].first > v) {
      // Fast path: nodes up to the next extra edge's source keep their base
      // runs verbatim.
      const int64_t stop =
          d < sorted_edges.size()
              ? std::min<int64_t>(sorted_edges[d].first - begin, n)
              : n;
      const int64_t base_stop = std::min(stop, base_nodes);
      if (i < base_stop) {
        const int32_t shift = static_cast<int32_t>(indices->size()) - run(i);
        indices->insert(indices->end(), base_indices + run(i),
                        base_indices + run(base_stop));
        for (int64_t u = i; u < base_stop; ++u) {
          offsets->push_back(run(u + 1) + shift);
        }
        i = base_stop;
      }
      // Nodes past the base with no extra edges are isolated.
      for (; i < stop; ++i) {
        offsets->push_back(static_cast<int32_t>(indices->size()));
      }
      --i;  // loop increment
      continue;
    }
    const int32_t* b = nullptr;
    const int32_t* e = nullptr;
    if (i < base_nodes) {
      b = base_indices + run(i);
      e = base_indices + run(i + 1);
    }
    // Ascending merge of the base run with v's extra run.
    while (b != e || (d < sorted_edges.size() && sorted_edges[d].first == v)) {
      const bool extra_here =
          d < sorted_edges.size() && sorted_edges[d].first == v;
      if (b == e || (extra_here && sorted_edges[d].second < *b)) {
        GRIMP_DCHECK(extra_here);
        indices->push_back(sorted_edges[d++].second);
      } else {
        indices->push_back(*b++);
      }
    }
    offsets->push_back(static_cast<int32_t>(indices->size()));
  }
  GRIMP_CHECK_EQ(static_cast<int64_t>(d),
                 static_cast<int64_t>(sorted_edges.size()));
}

CsrAdjacency MergeAdjacencyDelta(
    const CsrAdjacency& base, int64_t new_num_nodes,
    const std::vector<std::pair<int32_t, int32_t>>& sorted_edges) {
  GRIMP_CHECK_GE(new_num_nodes, base.num_nodes());
  std::vector<int32_t> offsets;
  std::vector<int32_t> indices;
  MergeSortedRuns(0, new_num_nodes, base.offsets().data(),
                  base.indices().data(), base.num_nodes(), sorted_edges,
                  &offsets, &indices);
  return CsrAdjacency::FromParts(std::move(offsets), std::move(indices));
}

}  // namespace grimp
