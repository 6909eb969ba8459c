#include <vector>

// Private candidate loops that a kernel change would miss.
std::uint64_t candidates(std::vector<int>& out, const std::vector<int>& b) {
  return gcsm::intersect_into(out, b.data(), b.size());
}
std::uint64_t view_candidates(std::vector<int>& out, const View& b,
                              std::vector<int>& tmp) {
  return gcsm::intersect_view_into(out, b, tmp);
}
