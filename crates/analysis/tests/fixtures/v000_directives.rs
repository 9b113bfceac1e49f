//! V000 fixture: directive hygiene, scanned as serve library code.
//! One well-formed, used allow (suppresses a V006 and raises nothing),
//! and five broken directives, one naming the retired V001. Expected:
//! five V000 diagnostics.

// vitcod-lint: allow(V006, fixture: demonstrates a consumed allow)
pub fn used_allow(x: u32) -> u32 {
    x
}

fn hygiene(a: u32, b: u32) -> u32 {
    // vitcod-lint: allow V006 missing parentheses
    let sum = a + b;
    // vitcod-lint: allow(V006)
    let double = sum * 2;
    // vitcod-lint: allow(V001, retired: clippy carries it now, so the id is unknown)
    let triple = sum * 3;
    // vitcod-lint: allow(V006,   )
    let quad = sum * 4;
    // vitcod-lint: allow(V002, this line raises no V002, so the allow is stale)
    double + triple + quad
}
