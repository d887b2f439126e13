//! Retry policy for absorbing transient fabric faults.
//!
//! A [`RetryPolicy`] re-issues a DSM operation while the failure is
//! *transient* ([`crate::DsmError::is_transient`]): injected timeouts from
//! partitions and NIC/QP hiccups. Hard faults — crashed node, protection
//! fault, exhausted group — surface immediately as typed errors.
//!
//! Backoff is capped exponential with **seeded jitter charged to the
//! virtual clock**: two runs with the same seed and the same verb
//! sequence back off identically, keeping experiment output
//! byte-reproducible. The retried verb itself is safe to re-issue: fault
//! injection fires *before* the simulated NICs touch memory, so a failed
//! attempt had no side effect (matching real RDMA, where a completion
//! error means the WQE did not commit at the target).

use rdma_sim::Endpoint;

use crate::layer::DsmResult;

/// SplitMix64 finalizer (same family the vendored `rand` seeds with).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deadline + capped exponential backoff with seeded jitter: the
/// [`Default`] policy, or [`RetryPolicy::none`]. Both share the schedule
/// below; they differ only in their attempt budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    max_attempts: u32,
}

/// Backoff before the first retry, virtual ns.
const BASE_BACKOFF_NS: u64 = 2_000;
/// Ceiling on a single backoff, virtual ns.
const MAX_BACKOFF_NS: u64 = 500_000;
/// Give up once this much virtual time elapsed since the first try.
const DEADLINE_NS: u64 = 5_000_000;
/// Seed for the jitter (mixed with attempt number and clock).
const SEED: u64 = 0x5EED;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: Self::MAX_ATTEMPTS }
    }
}

impl RetryPolicy {
    /// Total attempts of the default policy, including the first.
    pub const MAX_ATTEMPTS: u32 = 6;

    /// No retries: every failure surfaces on the first attempt.
    pub fn none() -> Self {
        Self { max_attempts: 1 }
    }

    /// Backoff before retry number `attempt` (1-based): exponential from
    /// `BASE_BACKOFF_NS`, capped, with jitter in `[cap/2, cap]` so
    /// contending retriers decorrelate without leaving the cap.
    fn backoff_ns(attempt: u32, now_ns: u64) -> u64 {
        let cap = BASE_BACKOFF_NS.saturating_mul(1u64 << (attempt - 1).min(20)).min(MAX_BACKOFF_NS);
        let half = cap / 2;
        half + splitmix64(SEED ^ now_ns ^ attempt as u64) % (cap - half + 1)
    }

    /// Run `op`, retrying transient failures until the attempt or
    /// deadline budget runs out. Backoff is charged to `ep`'s virtual
    /// clock. Returns the last transient error on exhaustion.
    pub fn run<T>(&self, ep: &Endpoint, mut op: impl FnMut() -> DsmResult<T>) -> DsmResult<T> {
        let start = ep.clock().now_ns();
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => {
                    attempt += 1;
                    let elapsed = ep.clock().now_ns().saturating_sub(start);
                    if attempt >= self.max_attempts || elapsed >= DEADLINE_NS {
                        return Err(e);
                    }
                    ep.charge_local(Self::backoff_ns(attempt, ep.clock().now_ns()));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::DsmError;
    use rdma_sim::{Fabric, NetworkProfile, RdmaError};

    fn ep() -> Endpoint {
        Fabric::new(NetworkProfile::zero()).endpoint()
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let ep = ep();
        let mut fails = 3;
        let out = RetryPolicy::default().run(&ep, || {
            if fails > 0 {
                fails -= 1;
                Err(DsmError::Rdma(RdmaError::Transient(1)))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert!(ep.clock().now_ns() > 0, "backoff must cost virtual time");
    }

    #[test]
    fn hard_errors_surface_immediately() {
        let ep = ep();
        let mut calls = 0;
        let out: DsmResult<()> = RetryPolicy::default().run(&ep, || {
            calls += 1;
            Err(DsmError::Rdma(RdmaError::NodeUnreachable(2)))
        });
        assert_eq!(out, Err(DsmError::Rdma(RdmaError::NodeUnreachable(2))));
        assert_eq!(calls, 1);
        assert_eq!(ep.clock().now_ns(), 0);
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let ep = ep();
        let mut calls = 0;
        let out: DsmResult<()> = RetryPolicy::default().run(&ep, || {
            calls += 1;
            Err(DsmError::Rdma(RdmaError::Timeout(0)))
        });
        assert_eq!(out, Err(DsmError::Rdma(RdmaError::Timeout(0))));
        assert_eq!(calls, 6);
    }

    /// Failed verbs of 2 ms each: the third ends past the 5 ms deadline,
    /// so the loop stops there with attempts left.
    #[test]
    fn deadline_bounds_virtual_time_spent() {
        let ep = ep();
        let mut calls = 0;
        let out: DsmResult<()> = RetryPolicy::default().run(&ep, || {
            calls += 1;
            ep.charge_local(2_000_000); // simulate the failed verb's cost
            Err(DsmError::Rdma(RdmaError::Timeout(0)))
        });
        assert!(out.is_err());
        assert_eq!(calls, 3, "deadline must stop the loop");
        assert!(ep.clock().now_ns() < 6_200_000, "{}", ep.clock().now_ns());
    }

    /// Retry `n` waits in `[cap/2, cap]` for `cap = min(2 µs << (n - 1),
    /// 500 µs)`, the same for the same attempt and clock.
    #[test]
    fn backoff_is_deterministic_per_seed() {
        assert_eq!(RetryPolicy::backoff_ns(3, 777), RetryPolicy::backoff_ns(3, 777));
        for attempt in 1..32 {
            let cap = (2_000u64 << (attempt - 1).min(20)).min(500_000);
            let b = RetryPolicy::backoff_ns(attempt, 1);
            assert!(cap / 2 <= b && b <= cap, "attempt {attempt}: {b} outside [{}, {cap}]", cap / 2);
        }
    }

    #[test]
    fn none_policy_never_retries() {
        let ep = ep();
        let mut calls = 0;
        let out: DsmResult<()> = RetryPolicy::none().run(&ep, || {
            calls += 1;
            Err(DsmError::Rdma(RdmaError::Transient(0)))
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }
}
