#include <vector>

double estimate(const Batch& b);

// A private step 2 that a cache-step change would miss.
std::vector<int> shard_order(const Query* qs, const Graph& g, const Batch& b) {
  if (estimate(b) > 0.0) return khop_vertices(g, b, 2);
  return qs->estimator->estimate(g, b).order;
}
