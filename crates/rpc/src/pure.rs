//! Pure balancer transition cores.
//!
//! These functions are the routing model the `er-mc` control-plane
//! checker explores: per-replica outstanding-request counters, the
//! least-outstanding pick, completions, and the reconciliation a scale
//! event needs. The checker's property P3 (`balancer_counters_accurate`)
//! holds the counters equal to the true in-flight counts across replica
//! churn. The simulation engine does not call them: it routes each RPC to
//! the pod that can start it soonest and keeps no counters. All functions
//! are deterministic over their inputs (no clocks, no RNG, no ambient
//! state).

/// Reconciles outstanding counters with a replica set of size `n`: dead
/// replicas' counters are discarded (their in-flight requests died with the
/// pods and will never complete), and fresh replicas start at zero charge.
pub fn sync_outstanding(outstanding: &mut Vec<u32>, n: usize) {
    outstanding.truncate(n);
    if outstanding.len() < n {
        outstanding.resize(n, 0);
    }
}

/// Least-outstanding choice over counters already synced to the replica
/// count: the lowest-charged replica, ties breaking toward lower IDs.
/// Charges the winner.
///
/// # Panics
///
/// Panics if `outstanding` is empty.
#[must_use]
pub fn pick_least(outstanding: &mut [u32]) -> usize {
    assert!(!outstanding.is_empty(), "cannot balance over zero replicas");
    // Scan for the minimum directly — ties break toward lower IDs, and
    // unlike `min_by_key` there is no empty-range Option to unwrap.
    let mut choice = 0;
    for i in 1..outstanding.len() {
        if outstanding[i] < outstanding[choice] {
            choice = i;
        }
    }
    outstanding[choice] += 1;
    choice
}

/// A completion for `replica`: uncharges it. Completions from dead or
/// unknown replicas are ignored — their counters were discarded at
/// scale-in and must not go negative or resurrect.
pub fn complete(outstanding: &mut [u32], replica: usize) {
    if let Some(c) = outstanding.get_mut(replica) {
        *c = c.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_truncates_then_zero_fills() {
        let mut c = vec![3, 1, 4, 1, 5];
        sync_outstanding(&mut c, 2);
        assert_eq!(c, vec![3, 1]);
        sync_outstanding(&mut c, 4);
        assert_eq!(c, vec![3, 1, 0, 0]);
    }

    #[test]
    fn pick_least_breaks_ties_low_and_charges() {
        let mut c = vec![1, 0, 0];
        assert_eq!(pick_least(&mut c), 1);
        assert_eq!(c, vec![1, 1, 0]);
    }

    #[test]
    fn complete_saturates_and_ignores_unknown() {
        let mut c = vec![0, 1];
        complete(&mut c, 0); // already zero: stays zero
        complete(&mut c, 1);
        complete(&mut c, 9); // unknown: ignored
        assert_eq!(c, vec![0, 0]);
    }
}
