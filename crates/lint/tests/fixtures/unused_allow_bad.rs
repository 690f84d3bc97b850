//! Fixture: stale and unknown suppression markers that the workspace
//! `unused_allow` audit must flag.

// lint::allow(float_reduction): the reduction this blessed was removed long ago
pub fn tidy(x: f32) -> f32 {
    x + 1.0
}

// lint::allow(not_a_rule): typo'd rule names must not rot silently
pub fn renamed(x: u32) -> u32 {
    x + 2
}

pub fn live(xs: &[f32]) -> f32 {
    // lint::allow(float_reduction): fixture-blessed reduction stays suppressed
    xs.iter().sum::<f32>()
}
