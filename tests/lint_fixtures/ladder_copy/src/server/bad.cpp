#include <algorithm>

// A private retry loop that a ladder change would miss.
double next_backoff(const RecoveryOptions* rec, double backoff_ms) {
  return std::min(backoff_ms * rec->backoff_multiplier, (*rec).backoff_max_ms);
}
