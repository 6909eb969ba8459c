#include <cstdint>

// A fetch that charges the device's TrafficCounters (named here in a
// comment, which passes) instead of the block's tally: flagged.
struct Policy {
  int fetch(int v, gcsm::gpusim::TrafficCounters& counters);
  int fetch_tallied(int v, gcsm::gpusim::Traffic& traffic);
};
