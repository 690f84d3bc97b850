//! Fixture: raw strings must not derail the lexer. The literal below
//! contains a `"#` that would fool naive hash matching, plus bait
//! (`sum::<f32>()`) that must NOT be reported — while the real
//! `sum::<f32>()` after it MUST be.

pub fn template() -> &'static str {
    r##"bait: xs.iter().sum::<f32>() — note this "quote"# stays inside"##
}

pub fn pool(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}
