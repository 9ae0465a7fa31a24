//! Multi-tenant scheduling policies for the virtual-time device
//! queues.
//!
//! The eager [`VirtualScheduler`](crate::sched::VirtualScheduler)
//! dispatch places charges the instant they are submitted — which *is*
//! FIFO service when submissions arrive in virtual-time order. Serving
//! tenants with different priorities, weights, or deadlines needs the
//! opposite: charges wait in per-device pending queues and the device,
//! each time it frees up, picks which queued charge to serve next.
//! That pick is the [`SchedPolicyKind`] the scheduler was built with;
//! the queues themselves live in the scheduler
//! ([`VirtualScheduler::enqueue`](crate::sched::VirtualScheduler::enqueue)
//! / [`advance_to`](crate::sched::VirtualScheduler::advance_to)).
//!
//! Every policy is expressed the same way: at enqueue time the policy
//! assigns each charge a scalar *key* (lower serves first, ties broken
//! by submission order), and when a device frees it serves the
//! smallest-keyed charge among those that have already arrived. This
//! keeps the queued path exactly as deterministic as the eager one —
//! same inputs, same timeline, bit for bit.
//!
//! | Policy | Key | Behavior |
//! |---|---|---|
//! | [`Fifo`](SchedPolicyKind::Fifo) | constant | submission order; bit-identical to eager dispatch |
//! | [`StrictPriority`](SchedPolicyKind::StrictPriority) | `255 − priority` | higher [`SchedTag::priority`] always first |
//! | [`WeightedFair`](SchedPolicyKind::WeightedFair) | SCFQ finish tag | device seconds shared ∝ [`SchedTag::weight`] |
//! | [`Deadline`](SchedPolicyKind::Deadline) | `deadline_vt` | earliest [`SchedTag::deadline_vt`] first (EDF) |

/// Per-operation scheduling attributes, stamped by the submitting
/// tenant's registration.
///
/// The default tag (tenant 0, priority 0, weight 1, no deadline) is
/// what every untagged submission carries; a fleet that never tags
/// anything therefore schedules exactly as before the QoS layer
/// existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedTag {
    /// Tenant index — keys the per-tenant busy/queue-delay accounting.
    pub tenant: usize,
    /// Strict priority class (higher serves first under
    /// [`SchedPolicyKind::StrictPriority`]).
    pub priority: u8,
    /// Fair share weight (device seconds are shared proportionally
    /// under [`SchedPolicyKind::WeightedFair`]); clamped to a small
    /// positive minimum.
    pub weight: f64,
    /// Absolute completion deadline on the virtual timeline (EDF order
    /// under [`SchedPolicyKind::Deadline`]); `INFINITY` means "no
    /// deadline".
    pub deadline_vt: f64,
}

impl Default for SchedTag {
    fn default() -> SchedTag {
        SchedTag {
            tenant: 0,
            priority: 0,
            weight: 1.0,
            deadline_vt: f64::INFINITY,
        }
    }
}

/// How a device picks the next pending charge to serve on the queued
/// dispatch path. Plain `Copy`/`Eq` config data; the scheduler keys
/// and serves by `match` on it.
///
/// Each charge gets a key when it joins a device's pending queue; the
/// device serves the smallest key among the charges that have arrived
/// by the time it frees up, breaking ties by submission sequence.
///
/// ```
/// use sage_io::qos::{SchedPolicyKind, SchedTag};
/// use sage_io::sched::{DeviceCharge, VirtualScheduler};
///
/// // Two tenants share one device under strict priority: the
/// // high-priority charge submitted *later* is served *first*.
/// let mut s = VirtualScheduler::with_policy(1, SchedPolicyKind::StrictPriority);
/// let lo = SchedTag { tenant: 0, priority: 0, ..SchedTag::default() };
/// let hi = SchedTag { tenant: 1, priority: 7, ..SchedTag::default() };
/// let blocker = [DeviceCharge { device: 0, seconds: 1.0 }];
/// s.enqueue(0, 0.0, &blocker, lo); // in service at t=0
/// s.enqueue(1, 0.1, &blocker, lo); // queued
/// s.enqueue(2, 0.2, &blocker, hi); // queued, higher priority
/// let done = s.advance_to(f64::INFINITY);
/// // The blocker finishes at 1.0; the high-priority op jumps the
/// // earlier-submitted low-priority one.
/// assert_eq!(done.iter().map(|r| r.user_data).collect::<Vec<_>>(), [0, 2, 1]);
/// assert_eq!(done[1].dispatch.started_vt, 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicyKind {
    /// First in, first out — the default, and bit-identical to the
    /// eager dispatch path (property-gated in `tests/prop_qos.rs`).
    #[default]
    Fifo,
    /// Higher [`SchedTag::priority`] always serves first; submission
    /// order within a class.
    StrictPriority,
    /// Self-clocked weighted fair queueing (SCFQ) over per-tenant
    /// device seconds.
    ///
    /// Each device keeps a virtual clock `v` — the finish tag of the
    /// charge most recently started. A charge from tenant `t` with
    /// demand `s` gets start tag `max(v, F_last[t])` and finish tag
    /// `start + s / weight`; devices serve the smallest finish tag.
    /// Backlogged tenants therefore receive device seconds
    /// proportionally to their weights, and an idle tenant's share is
    /// redistributed (the clock catches up, so returning tenants are
    /// not owed the past).
    WeightedFair,
    /// Earliest deadline first on [`SchedTag::deadline_vt`] (derived
    /// from the tenant's SLO by the client layer: `submit + slo`).
    Deadline,
}

impl SchedPolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [SchedPolicyKind; 4] = [
        SchedPolicyKind::Fifo,
        SchedPolicyKind::StrictPriority,
        SchedPolicyKind::WeightedFair,
        SchedPolicyKind::Deadline,
    ];

    /// Display label ("fifo", "strict_priority", …).
    pub fn label(&self) -> &'static str {
        match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::StrictPriority => "strict_priority",
            SchedPolicyKind::WeightedFair => "weighted_fair",
            SchedPolicyKind::Deadline => "deadline",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::VirtualScheduler;

    fn sched(kind: SchedPolicyKind) -> VirtualScheduler {
        VirtualScheduler::with_policy(1, kind)
    }

    #[test]
    fn default_tag_is_the_neutral_tenant() {
        let t = SchedTag::default();
        assert_eq!(t.tenant, 0);
        assert_eq!(t.priority, 0);
        assert_eq!(t.weight, 1.0);
        assert!(t.deadline_vt.is_infinite());
    }

    #[test]
    fn kinds_instantiate_matching_policies() {
        // Each kind keys one charge by its own rule.
        let tag = SchedTag {
            tenant: 0,
            priority: 7,
            weight: 2.0,
            deadline_vt: 3.0,
        };
        let keys: Vec<f64> = SchedPolicyKind::ALL
            .into_iter()
            .map(|kind| sched(kind).enqueue_key(0, &tag, 1.0))
            .collect();
        assert_eq!(keys, [0.0, 248.0, 0.5, 3.0]);
        let labels: Vec<&str> = SchedPolicyKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["fifo", "strict_priority", "weighted_fair", "deadline"]
        );
        assert_eq!(SchedPolicyKind::default(), SchedPolicyKind::Fifo);
    }

    #[test]
    fn strict_priority_orders_by_class() {
        let mut p = sched(SchedPolicyKind::StrictPriority);
        let hi = SchedTag {
            priority: 9,
            ..SchedTag::default()
        };
        let lo = SchedTag {
            priority: 1,
            ..SchedTag::default()
        };
        assert!(p.enqueue_key(0, &hi, 1.0) < p.enqueue_key(0, &lo, 1.0));
    }

    #[test]
    fn weighted_fair_finish_tags_scale_inversely_with_weight() {
        let mut p = sched(SchedPolicyKind::WeightedFair);
        let heavy = SchedTag {
            tenant: 0,
            weight: 4.0,
            ..SchedTag::default()
        };
        let light = SchedTag {
            tenant: 1,
            weight: 1.0,
            ..SchedTag::default()
        };
        // Same demand: the heavy tenant's finish tag is 4× closer.
        assert_eq!(p.enqueue_key(0, &heavy, 1.0), 0.25);
        assert_eq!(p.enqueue_key(0, &light, 1.0), 1.0);
        // Back-to-back charges from one tenant chain off its own
        // previous finish tag.
        assert_eq!(p.enqueue_key(0, &heavy, 1.0), 0.5);
        // A service advances the device clock: later enqueues start
        // from it, not from zero.
        p.on_service(0, 1.0);
        let other = SchedTag {
            tenant: 2,
            ..SchedTag::default()
        };
        assert_eq!(p.enqueue_key(0, &other, 1.0), 2.0);
        assert_eq!(p.enqueue_key(0, &light, 1.0), 2.0);
    }

    #[test]
    fn zero_weight_is_clamped_finite() {
        let mut p = sched(SchedPolicyKind::WeightedFair);
        let broken = SchedTag {
            weight: 0.0,
            ..SchedTag::default()
        };
        assert!(p.enqueue_key(0, &broken, 1.0).is_finite());
    }

    #[test]
    fn deadline_key_is_the_deadline() {
        let mut p = sched(SchedPolicyKind::Deadline);
        let t = SchedTag {
            deadline_vt: 7.5,
            ..SchedTag::default()
        };
        assert_eq!(p.enqueue_key(0, &t, 1.0), 7.5);
        assert!(p.enqueue_key(0, &SchedTag::default(), 1.0).is_infinite());
    }
}
