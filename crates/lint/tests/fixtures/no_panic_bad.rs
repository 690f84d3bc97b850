//! Fixture: panics in serving-path library code.

pub fn pick(xs: &[u32]) -> u32 {
    let first = xs.first().unwrap(); // violation: no_panic
    let last = xs.last().expect("non-empty"); // violation: no_panic
    if first > last {
        panic!("unsorted"); // violation: no_panic
    }
    *first
}

pub fn fine(xs: &[u32]) -> u32 {
    // unwrap_or and friends carry no panic and must not match.
    xs.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    pub fn panics_are_fine_in_tests() {
        let xs: Vec<u32> = vec![];
        assert!(xs.first().is_none());
        let _ = std::panic::catch_unwind(|| xs.first().unwrap());
    }
}
