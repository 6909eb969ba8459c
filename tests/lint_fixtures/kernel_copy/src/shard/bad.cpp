#include <vector>

// A private candidate loop that a kernel change would miss.
std::uint64_t candidates(std::vector<int>& out, const std::vector<int>& b) {
  return gcsm::intersect_into(out, b.data(), b.size());
}
