// The one step-3 commit may write commit units.
void commit(Durability& durability, const CommitUnit& unit) {
  durability.commit_batch(unit);
}
