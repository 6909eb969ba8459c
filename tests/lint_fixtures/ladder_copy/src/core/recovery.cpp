#include <algorithm>

// The one ladder may read its knobs.
int attempts(const RecoveryOptions& options) {
  return std::max(1, options.max_attempts);
}
