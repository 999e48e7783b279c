// Fixture: an `unsafe` block, which no workspace file may hold. Must fire
// unsafe-confinement exactly once (the mention in this comment and the
// string below must not count).

pub fn read_first(xs: &[u64]) -> u64 {
    let _decoy = "unsafe";
    unsafe { *xs.get_unchecked(0) }
}
