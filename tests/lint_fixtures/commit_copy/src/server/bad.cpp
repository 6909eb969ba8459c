// A private step 3 and a private reader of the WAL record types that a
// commit-path change would miss.
void commit(Durability* durability, const CommitUnit& unit) {
  durability->commit_batch(unit);
}

bool is_batch(int type) {
  return type == static_cast<int>(gcsm::wal::RecordType::kBatch);
}
