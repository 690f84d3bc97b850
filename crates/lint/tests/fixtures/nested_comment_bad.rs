//! Fixture: nested block comments must not derail the lexer. A naive
//! scanner closes the comment at the first `*/` and reads the bait as
//! code; the real violation comes after the (fully closed) comment.

/* outer /* inner */ bait: xs.iter().sum::<f32>() still commented */
pub fn pool(xs: &[f32]) -> f32 {
    xs.iter().sum::<f32>()
}
