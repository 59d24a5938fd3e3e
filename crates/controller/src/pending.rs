//! Dependency-driven update release and reliable (re)transmission state.
//!
//! Controllers do not fire all updates at once: an update is *released*
//! (sent to its switch) only when its dependency set has drained, and
//! verified switch acknowledgements are what drain dependency sets (paper
//! §4.1). Updates with disjoint dependency sets proceed in parallel
//! (§3.3, intra-domain parallelism).
//!
//! Release is not delivery: the southbound channel may lose the update or
//! its acknowledgement. Released updates therefore sit in an [`Outbox`] —
//! the one retransmission primitive every reliable send in the workspace
//! uses — and the tracker answers "what is due for retransmission now?"
//! ([`PendingUpdates::due_retries`]). An
//! update whose retry budget is exhausted is reported as **failed**
//! (together with every update transitively depending on it) instead of
//! silently stalling the dependency graph. Acknowledged updates are kept
//! in an archive so re-sync requests (NACKs) from switches that missed
//! them can be answered after a partition heals.

use crate::scheduler::ScheduledUpdate;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{NetworkUpdate, UpdateId};
use std::collections::{BTreeMap, BTreeSet};

/// Retransmission policy: exponential backoff with deterministic jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retransmission.
    pub base: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Retransmissions allowed per message (not counting the first send);
    /// once spent, the sender gives up (an update is reported failed). `0`
    /// disables retransmission entirely (messages stay outstanding until
    /// answered).
    pub budget: u32,
    /// Seed for the deterministic jitter (mix in a per-sender value so
    /// replicas do not retransmit in lockstep).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_millis(25),
            max_backoff: SimDuration::from_secs(2),
            budget: 16,
            jitter_seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based) of `id`:
    /// `base * 2^(attempt-1)` capped at `max_backoff`, plus up to +25%
    /// jitter derived deterministically from the policy seed, the update
    /// identity and the attempt — seed-stable, but uncorrelated across
    /// senders and attempts.
    pub fn backoff(&self, id: UpdateId, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self.base.saturating_mul(1u64 << exp);
        let capped = raw.min(self.max_backoff);
        let h = splitmix64(
            self.jitter_seed
                ^ id.event.0.rotate_left(17)
                ^ u64::from(id.seq) << 40
                ^ u64::from(attempt),
        );
        let jitter_ns = if capped.as_nanos() == 0 {
            0
        } else {
            h % (capped.as_nanos() / 4 + 1)
        };
        capped + SimDuration::from_nanos(jitter_ns)
    }
}

/// The send state of one kind of retransmitted message: payloads keyed by
/// `K`, each with its retransmission count and next deadline under one
/// [`RetryPolicy`]. Every reliable send in the workspace runs on this one
/// schedule:
///
/// * a fresh entry's first retry is due `backoff(1)` after insertion;
/// * after retransmission *k* (reported as `attempt` *k*, 1-based) the
///   next is due `backoff(k + 1)` later;
/// * an entry due after `budget` retransmissions is removed and reported
///   exhausted instead;
/// * whatever the message waits for (an ack, a receipt, a visible effect)
///   cancels it through [`Outbox::remove`] or [`Outbox::retain`].
///
/// A `budget` of `0` disables retransmission: entries stay until cancelled
/// and are never due.
#[derive(Clone, Debug)]
pub struct Outbox<K, P> {
    policy: RetryPolicy,
    /// The identity each key's jitter is derived from.
    jitter_key: fn(&K) -> UpdateId,
    entries: BTreeMap<K, Slot<P>>,
}

#[derive(Clone, Debug)]
struct Slot<P> {
    payload: P,
    /// Retransmissions performed so far (the initial send is not counted).
    attempts: u32,
    next_due: SimTime,
}

/// What an [`Outbox::sweep`] decided for one due entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Due<K, P> {
    /// Retransmit the payload now, as retransmission number `attempt`.
    Resend(K, P, u32),
    /// The retry budget is spent; the entry has been removed.
    Exhausted(K, P),
}

impl<K: Ord + Copy, P: Clone> Outbox<K, P> {
    /// An empty outbox; `jitter_key` names the identity mixed into each
    /// key's backoff jitter.
    pub fn new(policy: RetryPolicy, jitter_key: fn(&K) -> UpdateId) -> Self {
        Outbox {
            policy,
            jitter_key,
            entries: BTreeMap::new(),
        }
    }

    /// Records the first send of `payload` at `now`, replacing any entry
    /// under `key`.
    pub fn insert(&mut self, key: K, payload: P, now: SimTime) {
        let next_due = now + self.policy.backoff((self.jitter_key)(&key), 1);
        let slot = Slot {
            payload,
            attempts: 0,
            next_due,
        };
        self.entries.insert(key, slot);
    }

    /// Cancels `key` (its message was answered); returns its payload.
    pub fn remove(&mut self, key: &K) -> Option<P> {
        self.entries.remove(key).map(|s| s.payload)
    }

    /// Cancels every entry for which `keep` returns `false`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &P) -> bool) {
        self.entries.retain(|k, s| keep(k, &s.payload));
    }

    /// `true` iff `key` is awaiting an answer.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Keys whose deadline has passed at `now`, in key order.
    pub fn due(&self, now: SimTime) -> impl Iterator<Item = &K> {
        let on = self.policy.budget > 0;
        self.entries
            .iter()
            .filter(move |(_, s)| on && s.next_due <= now)
            .map(|(k, _)| k)
    }

    /// Number of entries awaiting an answer.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing awaits an answer.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Earliest deadline, for timer arming; `None` when nothing can fall
    /// due.
    pub fn next_due(&self) -> Option<SimTime> {
        if self.policy.budget == 0 {
            return None;
        }
        self.entries.values().map(|s| s.next_due).min()
    }

    /// Processes every entry due at `now`, in key order: each is either
    /// retransmitted (its deadline advanced) or, with its budget spent,
    /// removed.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Due<K, P>> {
        let due: Vec<K> = self.due(now).copied().collect();
        due.into_iter()
            .filter_map(|k| match self.bump(&k, now) {
                Some(p) => Some(Due::Resend(k, p, self.entries[&k].attempts)),
                None => self.remove(&k).map(|p| Due::Exhausted(k, p)),
            })
            .collect()
    }

    /// Counts an out-of-schedule retransmission of `key` at `now` (e.g. a
    /// reply to an explicit re-sync request), restarting its backoff from
    /// there. Returns the payload to send, or `None` when `key` is absent
    /// or its budget is spent.
    pub fn bump(&mut self, key: &K, now: SimTime) -> Option<P> {
        let s = self.entries.get_mut(key)?;
        if s.attempts >= self.policy.budget {
            return None;
        }
        s.attempts += 1;
        s.next_due = now + self.policy.backoff((self.jitter_key)(key), s.attempts + 1);
        Some(s.payload.clone())
    }
}

/// The updates a retry sweep decided on.
#[derive(Clone, Debug, Default)]
pub struct RetryBatch {
    /// Updates to retransmit now, paired with their retransmission number
    /// (1-based; the initial send is number 0).
    pub resend: Vec<(NetworkUpdate, u32)>,
    /// Updates whose budget is exhausted — reported failed (includes
    /// waiting updates transitively dependent on a failed one).
    pub failed: Vec<UpdateId>,
}

/// Tracks scheduled updates until acknowledged; the released ones sit in
/// an [`Outbox`].
#[derive(Clone, Debug)]
pub struct PendingUpdates {
    waiting: BTreeMap<UpdateId, ScheduledUpdate>,
    sent: Outbox<UpdateId, NetworkUpdate>,
    acked: BTreeSet<UpdateId>,
    /// Acknowledged updates kept for re-sync replies.
    completed: BTreeMap<UpdateId, NetworkUpdate>,
    failed: BTreeSet<UpdateId>,
}

impl Default for PendingUpdates {
    fn default() -> Self {
        PendingUpdates {
            waiting: BTreeMap::new(),
            sent: Outbox::new(RetryPolicy::default(), |id| *id),
            acked: BTreeSet::new(),
            completed: BTreeMap::new(),
            failed: BTreeSet::new(),
        }
    }
}

impl PendingUpdates {
    /// Empty tracker with the default retry policy.
    pub fn new() -> Self {
        PendingUpdates::default()
    }

    /// Sets the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.sent = Outbox::new(policy, |id| *id);
        self
    }

    /// Admits a schedule; returns the updates that are immediately ready to
    /// send (empty dependency sets), recorded as in flight at `now`.
    pub fn admit(&mut self, schedule: Vec<ScheduledUpdate>, now: SimTime) -> Vec<NetworkUpdate> {
        for s in schedule {
            // Dependencies already acknowledged (e.g. re-admission after a
            // membership change) are pre-drained.
            let mut s = s;
            s.deps.retain(|d| !self.acked.contains(d));
            self.waiting.insert(s.update.id, s);
        }
        self.release_ready(now)
    }

    /// Records a verified acknowledgement; returns updates that became
    /// ready (recorded as in flight at `now`).
    pub fn ack(&mut self, id: UpdateId, now: SimTime) -> Vec<NetworkUpdate> {
        self.acked.insert(id);
        if let Some(update) = self.sent.remove(&id) {
            self.completed.insert(id, update);
        }
        for s in self.waiting.values_mut() {
            s.deps.remove(&id);
        }
        self.release_ready(now)
    }

    fn release_ready(&mut self, now: SimTime) -> Vec<NetworkUpdate> {
        let ready_ids: Vec<UpdateId> = self
            .waiting
            .iter()
            .filter(|(_, s)| s.deps.is_empty())
            .map(|(&id, _)| id)
            .collect();
        let mut out = Vec::with_capacity(ready_ids.len());
        for id in ready_ids {
            let s = self.waiting.remove(&id).expect("present");
            self.sent.insert(id, s.update, now);
            out.push(s.update);
        }
        out
    }

    /// Ids of every acknowledged update, in id order (durability snapshots
    /// persist this set so a recovered controller pre-drains acked deps).
    pub fn acked_ids(&self) -> impl Iterator<Item = UpdateId> + '_ {
        self.acked.iter().copied()
    }

    /// Sweeps the in-flight set at `now`: returns the updates due for
    /// retransmission and the updates whose retry budget is exhausted.
    /// Exhausted updates — and every waiting update transitively depending
    /// on one — move to the failed set.
    pub fn due_retries(&mut self, now: SimTime) -> RetryBatch {
        let mut batch = RetryBatch::default();
        for d in self.sent.sweep(now) {
            match d {
                Due::Resend(_, update, attempt) => batch.resend.push((update, attempt)),
                Due::Exhausted(id, _) => batch.failed.push(id),
            }
        }
        // Cascade: a waiting update whose dependency failed can never
        // release; fail it too (transitively) so the graph drains into an
        // explicit failure report instead of a silent stall.
        let mut frontier: Vec<UpdateId> = batch.failed.clone();
        while let Some(f) = frontier.pop() {
            self.failed.insert(f);
            let doomed: Vec<UpdateId> = self
                .waiting
                .iter()
                .filter(|(_, s)| s.deps.contains(&f))
                .map(|(&id, _)| id)
                .collect();
            for id in doomed {
                self.waiting.remove(&id);
                batch.failed.push(id);
                frontier.push(id);
            }
        }
        batch
    }

    /// Earliest retry deadline among in-flight updates, if any (for timer
    /// arming). `None` when nothing is in flight or retransmission is
    /// disabled.
    pub fn next_due(&self) -> Option<SimTime> {
        self.sent.next_due()
    }

    /// Answers a re-sync request (NACK) for `id`: returns the signed-update
    /// payload to retransmit if this controller still holds it — either in
    /// flight (budget permitting; the NACK response counts as the next
    /// retransmission) or in the acknowledged archive (a healed-partition
    /// peer re-requesting state).
    pub fn resync(&mut self, id: UpdateId, now: SimTime) -> Option<NetworkUpdate> {
        if self.sent.contains(&id) {
            return self.sent.bump(&id, now);
        }
        self.completed.get(&id).copied()
    }

    /// Number of updates in flight (sent, unacknowledged).
    pub fn in_flight_count(&self) -> usize {
        self.sent.len()
    }

    /// `true` iff nothing is waiting or in flight.
    pub fn is_drained(&self) -> bool {
        self.waiting.is_empty() && self.sent.is_empty()
    }

    /// Number of updates still waiting on dependencies.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Number of updates that exhausted their retry budget (including
    /// dependents abandoned by the cascade).
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// `true` iff `id` has been acknowledged.
    pub fn is_acked(&self, id: UpdateId) -> bool {
        self.acked.contains(&id)
    }

    /// `true` iff `id` was reported failed.
    pub fn is_failed(&self, id: UpdateId) -> bool {
        self.failed.contains(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{ReversePathScheduler, UpdateScheduler};
    use southbound::types::{
        EventId, FlowAction, FlowMatch, FlowRule, HostId, NextHop, SwitchId, UpdateKind,
    };

    const T0: SimTime = SimTime::ZERO;

    fn chain(n: u32, event: u64) -> Vec<ScheduledUpdate> {
        let updates: Vec<NetworkUpdate> = (0..n)
            .map(|i| NetworkUpdate {
                id: UpdateId {
                    event: EventId(event),
                    seq: i,
                },
                switch: SwitchId(i),
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(0),
                        dst: HostId(1),
                    },
                    action: FlowAction::Forward(NextHop::Switch(SwitchId(i + 1))),
                }),
            })
            .collect();
        ReversePathScheduler.schedule(&updates)
    }

    #[test]
    fn releases_in_reverse_path_order() {
        let mut p = PendingUpdates::new();
        let ready = p.admit(chain(3, 1), T0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].switch, SwitchId(2), "last hop first");
        let ready = p.ack(ready[0].id, T0);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].switch, SwitchId(1));
        let ready = p.ack(ready[0].id, T0);
        assert_eq!(ready[0].switch, SwitchId(0));
        let ready = p.ack(ready[0].id, T0);
        assert!(ready.is_empty());
        assert!(p.is_drained());
    }

    #[test]
    fn disjoint_events_progress_in_parallel() {
        let mut p = PendingUpdates::new();
        let mut ready = p.admit(chain(2, 1), T0);
        ready.extend(p.admit(chain(2, 2), T0));
        // One releasable update per event.
        assert_eq!(ready.len(), 2);
        let events: BTreeSet<u64> = ready.iter().map(|u| u.id.event.0).collect();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut p = PendingUpdates::new();
        let ready = p.admit(chain(2, 1), T0);
        let id = ready[0].id;
        let r1 = p.ack(id, T0);
        assert_eq!(r1.len(), 1);
        let r2 = p.ack(id, T0);
        assert!(r2.is_empty());
        assert!(p.is_acked(id));
    }

    #[test]
    fn admission_after_ack_pre_drains() {
        let mut p = PendingUpdates::new();
        let sched = chain(2, 1);
        let first_ready = p.admit(sched.clone(), T0)[0];
        p.ack(first_ready.id, T0);
        // Re-admitting the same schedule: the dep on the acked update is
        // already satisfied.
        let mut p2 = p.clone();
        let ready = p2.admit(sched, T0);
        assert!(ready.iter().any(|u| u.id.seq == 0));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            base: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(80),
            budget: 8,
            jitter_seed: 7,
        };
        let id = UpdateId {
            event: EventId(9),
            seq: 0,
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=4 {
            let b = policy.backoff(id, attempt);
            // Within [pure, pure * 1.25].
            let pure = SimDuration::from_millis(10).saturating_mul(1 << (attempt - 1));
            assert!(b >= pure, "attempt {attempt}: {b} < {pure}");
            assert!(b.as_nanos() <= pure.as_nanos() + pure.as_nanos() / 4 + 1);
            assert!(b > prev);
            prev = b;
        }
        // Capped (plus jitter headroom).
        let b = policy.backoff(id, 12);
        assert!(b.as_nanos() <= 80_000_000 + 80_000_000 / 4 + 1);
        // Deterministic.
        assert_eq!(policy.backoff(id, 3), policy.backoff(id, 3));
    }

    #[test]
    fn due_retries_resends_then_exhausts() {
        let policy = RetryPolicy {
            base: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(10),
            budget: 2,
            jitter_seed: 0,
        };
        let mut p = PendingUpdates::new().with_policy(policy);
        let ready = p.admit(chain(1, 1), T0);
        let id = ready[0].id;
        // Not yet due.
        assert!(p.due_retries(T0).resend.is_empty());
        // First retry.
        let mut now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert_eq!(b.resend.len(), 1);
        assert!(b.failed.is_empty());
        // Second retry.
        now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert_eq!(b.resend.len(), 1);
        // Budget exhausted: reported failed, removed from flight.
        now = p.next_due().unwrap();
        let b = p.due_retries(now);
        assert!(b.resend.is_empty());
        assert_eq!(b.failed, vec![id]);
        assert!(p.is_failed(id));
        assert_eq!(p.in_flight_count(), 0);
        assert!(p.next_due().is_none());
    }

    #[test]
    fn exhaustion_cascades_to_dependents() {
        let policy = RetryPolicy {
            base: SimDuration::from_millis(5),
            max_backoff: SimDuration::from_millis(5),
            budget: 1,
            jitter_seed: 1,
        };
        let mut p = PendingUpdates::new().with_policy(policy);
        let ready = p.admit(chain(3, 1), T0);
        assert_eq!(ready.len(), 1);
        // Exhaust the in-flight head of the chain.
        let now = p.next_due().unwrap();
        p.due_retries(now);
        let now = p.next_due().unwrap();
        let b = p.due_retries(now);
        // The head failed and both (transitive) dependents were abandoned.
        assert_eq!(b.failed.len(), 3);
        assert_eq!(p.failed_count(), 3);
        assert!(p.is_drained(), "failure drains the graph explicitly");
    }

    #[test]
    fn resync_answers_from_flight_and_archive() {
        let mut p = PendingUpdates::new();
        let ready = p.admit(chain(2, 1), T0);
        let first = ready[0].id;
        // In flight: resync returns the payload.
        assert_eq!(p.resync(first, T0).unwrap().id, first);
        // After the ack, it moves to the archive and is still answerable.
        p.ack(first, T0);
        assert_eq!(p.resync(first, T0).unwrap().id, first);
        // Unknown ids are not.
        let unknown = UpdateId {
            event: EventId(99),
            seq: 9,
        };
        assert!(p.resync(unknown, T0).is_none());
    }

    #[test]
    fn outbox_follows_the_one_schedule_rule() {
        let policy = RetryPolicy {
            base: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_secs(1),
            budget: 3,
            jitter_seed: 5,
        };
        let key = |e: &u64| UpdateId {
            event: EventId(*e),
            seq: 0,
        };
        let mut out: Outbox<u64, &str> = Outbox::new(policy, key);
        out.insert(1, "a", T0);
        out.insert(2, "b", T0);
        assert!(out.remove(&2).is_some(), "receipt cancels");
        let mut now = T0;
        for k in 1..=3 {
            // Retransmission k is due backoff(k) after the previous send.
            let early = now + (policy.backoff(key(&1), k) - SimDuration::from_nanos(1));
            let due = early + SimDuration::from_nanos(1);
            assert_eq!(out.next_due(), Some(due));
            assert!(out.sweep(early).is_empty());
            assert_eq!(out.sweep(due), vec![Due::Resend(1, "a", k)]);
            now = due;
        }
        // Budget spent: the next deadline removes the entry.
        let due = out.next_due().unwrap();
        assert_eq!(out.sweep(due), vec![Due::Exhausted(1, "a")]);
        assert!(out.is_empty() && out.next_due().is_none());
    }

    #[test]
    fn zero_budget_disables_retransmission() {
        let policy = RetryPolicy {
            budget: 0,
            ..RetryPolicy::default()
        };
        let mut p = PendingUpdates::new().with_policy(policy);
        p.admit(chain(1, 1), T0);
        assert!(p.next_due().is_none());
        let far = T0 + SimDuration::from_secs(3600);
        let b = p.due_retries(far);
        assert!(b.resend.is_empty() && b.failed.is_empty());
        assert_eq!(p.in_flight_count(), 1, "stays in flight forever");
    }
}
