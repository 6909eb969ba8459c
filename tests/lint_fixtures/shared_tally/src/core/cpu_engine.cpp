// The launch adds its blocks' tallies to the device's counters once: not
// on the fetch path, so allowed.
void merge(const gcsm::gpusim::Traffic& sum,
           gcsm::gpusim::TrafficCounters& counters) {
  counters.add(sum);
}
