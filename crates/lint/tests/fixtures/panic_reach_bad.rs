//! Fixture: a panic two private hops away from a public serving entry
//! point. File by file the three functions look harmless; only the
//! call-graph pass connects `serve` to the `.unwrap()` in `inner` and
//! reports the chain.

pub fn serve(x: Option<u32>) -> u32 {
    helper(x)
}

fn helper(x: Option<u32>) -> u32 {
    inner(x)
}

fn inner(x: Option<u32>) -> u32 {
    x.unwrap()
}
