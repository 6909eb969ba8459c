#include <vector>

// The one cache step may choose the order.
std::vector<int> order(const Estimator& est, const Graph& g, const Batch& b) {
  if (b.empty()) return select_by_degree(g);
  return select_by_frequency(est.estimate(g, b).frequency);
}
