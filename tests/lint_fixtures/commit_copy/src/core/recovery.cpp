// The one step-3 commit may write commit units.
void commit(Durability& durability, const CommitUnit& unit, bool group) {
  if (group) return durability.enqueue_commit(unit);
  durability.commit_batch(unit);
}
