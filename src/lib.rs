//! Workspace root crate. Hosts the runnable examples in `examples/` and the
//! cross-crate integration tests in `tests/`; all functionality lives in the
//! member crates (see `DESIGN.md`).

#![forbid(unsafe_code)]
