// Fixture: discarded journal-commit results must fire even when the
// call sits deep inside the initializer expression.

pub fn commit(j: &mut Journal, records: &[Record]) {
    let _ = j.append_batch(records); //~ discard
}

pub fn truncate(f: &mut File, len: u64) {
    let _ = wrap(f.set_len(len)); //~ discard
}
