//! Pure scheduling decisions over value snapshots: where a pod goes, and
//! which pod serves a request.
//!
//! [`place_pod`] is the single source of truth for where a pod goes — the
//! cluster's `add_pod` builds the views, calls it, and applies the
//! returned [`Placement`]. [`soonest_start`] is the single source of truth
//! for which replica serves an RPC — the simulation engine calls it for
//! every request it routes. The `er-mc` control-plane model calls both
//! functions on model states. Keeping the decisions pure (no clocks, no
//! RNG, no ambient state) is what makes scheduler and routing policies
//! enumerable by the model checker and, down the road, pluggable values.

use crate::ResourceRequest;

/// Snapshot of one node as the placement decision sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// Index of the pool the node was provisioned from.
    pub pool: usize,
    /// Resources currently allocated on the node.
    pub allocated: ResourceRequest,
    /// Failed nodes accept no pods.
    pub failed: bool,
    /// Pods of the deployment being placed already on this node — the
    /// topology-spread input.
    pub same_deployment_pods: usize,
}

/// Snapshot of one node pool as the placement decision sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolView {
    /// Whole-node capacity of every node in the pool.
    pub capacity: ResourceRequest,
    /// Provisioning cap (`None` = unbounded).
    pub max_nodes: Option<usize>,
    /// Non-failed nodes currently provisioned from this pool, counted
    /// against `max_nodes`.
    pub live_nodes: usize,
}

/// Where a pod should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Place onto the existing node at this index.
    Existing(usize),
    /// Provision a fresh node from this pool and place onto it.
    Provision {
        /// Pool to provision from.
        pool: usize,
    },
}

/// Why no placement exists. The cluster attaches the deployment name when
/// converting to [`crate::ScheduleError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The request exceeds every pool's whole-node capacity.
    PodLargerThanNode,
    /// Every fitting node is full and every fitting pool is at its cap.
    ClusterFull,
}

/// Decides where one pod of `request` goes, Kubernetes-style:
///
/// 1. Reject requests larger than every pool's whole-node capacity.
/// 2. Among existing nodes, walk pools in order; within a pool prefer the
///    node with the fewest same-deployment pods (topology-spread /
///    anti-affinity), breaking ties toward lower node indices so placement
///    is deterministic and packing dense.
/// 3. Otherwise provision from the first pool that can host the pod and
///    has budget left.
///
/// # Errors
///
/// [`PlaceError::PodLargerThanNode`] if step 1 rejects the request,
/// [`PlaceError::ClusterFull`] if steps 2–3 find nothing.
pub fn place_pod(
    nodes: &[NodeView],
    pools: &[PoolView],
    request: &ResourceRequest,
) -> Result<Placement, PlaceError> {
    if !pools
        .iter()
        .any(|p| ResourceRequest::default().fits_with(request, &p.capacity))
    {
        return Err(PlaceError::PodLargerThanNode);
    }
    for (pool, spec) in pools.iter().enumerate() {
        let best = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.pool == pool && !n.failed && n.allocated.fits_with(request, &spec.capacity)
            })
            .min_by_key(|&(i, n)| (n.same_deployment_pods, i))
            .map(|(i, _)| i);
        if let Some(i) = best {
            return Ok(Placement::Existing(i));
        }
    }
    for (pool, spec) in pools.iter().enumerate() {
        if !ResourceRequest::default().fits_with(request, &spec.capacity) {
            continue;
        }
        if spec.max_nodes.is_some_and(|max| spec.live_nodes >= max) {
            continue;
        }
        return Ok(Placement::Provision { pool });
    }
    Err(PlaceError::ClusterFull)
}

/// Picks the pod that can start a request soonest at `now`, returning
/// `(id, start)`.
///
/// `pods` yields each live pod as `(id, ready_at, free_at)` in deployment
/// order: a pod starts work at `max(now, ready_at, free_at)`, so a pod
/// still starting up is never handed work before it is ready. Ties go to
/// the earliest pod. Returns `None` when `pods` is empty.
pub fn soonest_start(
    now: f64,
    pods: impl IntoIterator<Item = (u64, f64, f64)>,
) -> Option<(u64, f64)> {
    let mut best: Option<(u64, f64)> = None;
    for (id, ready_at, free_at) in pods {
        let start = now.max(ready_at).max(free_at);
        if best.is_none_or(|(_, b)| start < b) {
            best = Some((id, start));
            if start <= now {
                // `start >= now` for every pod, so an idle, ready pod is
                // the global optimum; later pods can only tie, and ties go
                // to the earliest pod anyway.
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(cpu: u64, mem: u64) -> ResourceRequest {
        ResourceRequest::cpu(cpu, mem)
    }

    fn node(pool: usize, cpu: u64, same: usize) -> NodeView {
        NodeView {
            pool,
            allocated: req(cpu, 0),
            failed: false,
            same_deployment_pods: same,
        }
    }

    fn pool(cpu: u64, max: Option<usize>, live: usize) -> PoolView {
        PoolView {
            capacity: req(cpu, 1 << 40),
            max_nodes: max,
            live_nodes: live,
        }
    }

    #[test]
    fn oversized_request_is_rejected_before_anything_else() {
        let err = place_pod(&[], &[pool(64_000, None, 0)], &req(100_000, 0));
        assert_eq!(err, Err(PlaceError::PodLargerThanNode));
    }

    #[test]
    fn spread_prefers_fewest_same_deployment_pods_then_lowest_index() {
        let nodes = [node(0, 0, 2), node(0, 0, 1), node(0, 0, 1)];
        let got = place_pod(&nodes, &[pool(64_000, None, 3)], &req(1000, 0));
        assert_eq!(got, Ok(Placement::Existing(1)));
    }

    #[test]
    fn failed_and_full_nodes_are_skipped() {
        let mut failed = node(0, 0, 0);
        failed.failed = true;
        let full = node(0, 64_000, 0);
        let got = place_pod(&[failed, full], &[pool(64_000, Some(3), 1)], &req(1000, 0));
        assert_eq!(got, Ok(Placement::Provision { pool: 0 }));
    }

    #[test]
    fn earlier_pools_win_even_when_later_nodes_are_emptier() {
        let nodes = [node(1, 0, 0), node(0, 32_000, 0)];
        let got = place_pod(
            &nodes,
            &[pool(64_000, None, 1), pool(64_000, None, 1)],
            &req(1000, 0),
        );
        assert_eq!(got, Ok(Placement::Existing(1)));
    }

    #[test]
    fn provisioning_respects_pool_budgets() {
        let pools = [pool(8_000, Some(1), 1), pool(64_000, Some(2), 1)];
        let got = place_pod(&[], &pools, &req(16_000, 0));
        assert_eq!(got, Ok(Placement::Provision { pool: 1 }));
        let capped = [pool(64_000, Some(1), 1)];
        assert_eq!(
            place_pod(&[], &capped, &req(16_000, 0)),
            Err(PlaceError::ClusterFull)
        );
    }

    /// When pod c, still starting at `now = 100`, becomes ready.
    const READY_C: f64 = 102.0;

    /// Pods a, b and c (ids 7, 8, 9) at `now = 100`, each free at its
    /// entry of `frees`: a and b are ready, c is starting until `READY_C`.
    fn pick(frees: [f64; 3]) -> Option<(u64, f64)> {
        let ready = [0.0, 100.0, READY_C];
        soonest_start(100.0, (0..3).map(|i| (7 + i as u64, ready[i], frees[i])))
    }

    #[test]
    fn soonest_start_picks_the_pod_that_can_start_soonest() {
        // Idle and ready: a wins at `now`, and b, idle too, loses the tie.
        assert_eq!(pick([0.0; 3]), Some((7, 100.0)));
        // An idle, ready pod wins over a busy one earlier in order.
        assert_eq!(pick([101.0, 0.0, 0.0]), Some((8, 100.0)));
        // Idle but starting, c is not picked before its `ready_at` while a
        // ready pod can start sooner.
        assert_eq!(pick([101.5, 101.0, 0.0]), Some((8, 101.0)));
        // Every ready pod is busy past `ready_at`: c starts when ready.
        assert_eq!(
            pick([READY_C + 1.0, READY_C + 2.0, 0.0]),
            Some((9, READY_C))
        );
        // Ties go to the earliest pod in order, starting or not.
        assert_eq!(pick([READY_C, READY_C, 0.0]), Some((7, READY_C)));
        assert_eq!(pick([READY_C + 1.0, READY_C, 0.0]), Some((8, READY_C)));
        assert_eq!(soonest_start(0.0, []), None);
    }

    proptest! {
        /// The pick equals a brute-force minimum over `(start, position)`.
        /// Times sit on a half-second grid, so ties, `free_at == now` (the
        /// early break) and pods starting after `now` are routine; an empty
        /// pod set yields `None`.
        #[test]
        fn soonest_start_matches_brute_force_minimum(
            now_q in 0u8..6,
            pods in proptest::collection::vec((0u8..8, 0u8..8), 0..6),
        ) {
            let half = |q: u8| f64::from(q) / 2.0;
            let now = half(now_q);
            let want = pods
                .iter()
                .enumerate()
                .map(|(i, &(r, f))| (now.max(half(r)).max(half(f)), i))
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .map(|(start, i)| (100 + i as u64, start));
            let got = soonest_start(
                now,
                pods.iter()
                    .enumerate()
                    .map(|(i, &(r, f))| (100 + i as u64, half(r), half(f))),
            );
            prop_assert_eq!(got, want);
        }
    }
}
