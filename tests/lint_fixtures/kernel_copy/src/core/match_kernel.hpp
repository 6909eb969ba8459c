#include <vector>

// The one candidate step may intersect.
inline std::uint64_t step(std::vector<int>& out, const std::vector<int>& b) {
  return intersect_into(out, b.data(), b.size());
}
inline std::uint64_t step_view(std::vector<int>& out, const View& b,
                               std::vector<int>& tmp) {
  return intersect_view_into(out, b, tmp);
}
