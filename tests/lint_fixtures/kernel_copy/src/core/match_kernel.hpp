#include <vector>

// The one candidate step may intersect.
inline std::uint64_t step(std::vector<int>& out, const std::vector<int>& b) {
  return intersect_into(out, b.data(), b.size());
}
