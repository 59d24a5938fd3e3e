//! The cross-domain ordering handshake (DESIGN.md §3): barriers held for
//! foreign segments, segment-applied reports for own segments foreign
//! updates depend on, boundary-release receipts, and the re-forward /
//! retransmission outboxes that keep the handshake live under loss.

use super::ControllerActor;
use crate::msg::{Net, ReleaseBody, SegmentBody};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::pending::Due;
use controller::scheduler::{domain_segments, ScheduledUpdate};
use simnet::node::Host;
use simnet::time::SimDuration;
use southbound::envelope::Signed;
use southbound::types::{ControllerId, DomainId, Event, EventId, NetworkUpdate, UpdateId};
use std::collections::{BTreeMap, BTreeSet};
use substrate::collections::DetSet;

/// Synthetic dependency ids standing for "a foreign domain's path segment
/// has been applied". Real per-event sequence numbers are tiny, so the top
/// of the `u32` range is free for barriers.
const BARRIER_SEQ_BASE: u32 = 0xFFFF_0000;

pub(super) fn barrier_id(event: EventId, segment: u32) -> UpdateId {
    UpdateId {
        event,
        seq: BARRIER_SEQ_BASE + segment,
    }
}

/// What the upstream side of one cross-domain barrier still expects. Set
/// when local event processing registers the dependency; `SegmentApplied`
/// reports may legitimately arrive earlier and accumulate in
/// [`BarrierState::signers`] until then.
pub(super) struct BarrierExpect {
    /// The domain whose segment must apply before the barrier releases.
    downstream: DomainId,
    /// Distinct downstream reporters required.
    quorum: usize,
}

/// Upstream half of the cross-domain ordering handshake: collects
/// `SegmentApplied` signers for one `(event, segment)` until a quorum of
/// the downstream domain has reported, then acks the barrier id.
pub(super) struct BarrierState {
    /// Distinct `(domain, controller)` reporters seen (signature-checked).
    signers: DetSet<(DomainId, u32)>,
    /// Release condition, once our own schedule registered the dependency.
    expected: Option<BarrierExpect>,
    /// Set once released; late duplicates are receipted but change nothing.
    released: bool,
}

impl BarrierState {
    fn new() -> Self {
        BarrierState {
            signers: DetSet::new(),
            expected: None,
            released: false,
        }
    }
}

/// Downstream half of the handshake: waits until every update of an own
/// segment is switch-acked, then reports `SegmentApplied` to each upstream
/// controller until all of them receipted (or the retry budget is spent;
/// the schedule lives in `ControllerActor::seg_reports`).
pub(super) struct SegWatch {
    /// Own-segment updates not yet switch-acked.
    pub(super) remaining: DetSet<UpdateId>,
    /// Domains holding a barrier on this segment.
    upstreams: Vec<DomainId>,
    /// `(domain, controller)` targets that have not receipted yet.
    pending_receipts: DetSet<(DomainId, u32)>,
    /// Set once the first report went out.
    pub(super) sending: bool,
}

impl ControllerActor {
    /// Projects the full-event schedule onto this domain. Dependencies on
    /// foreign updates are rewritten to per-segment barrier ids (acked when
    /// a quorum of the owning domain reports the segment applied), and
    /// watches are registered for own segments that foreign updates depend
    /// on so this controller reports them upstream once they drain.
    pub(super) fn cross_domain_schedule(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        event: &Event,
        all: &[NetworkUpdate],
    ) -> Vec<ScheduledUpdate> {
        let full = self.scheduler.schedule(all);
        let segs = domain_segments(all, |s| {
            self.shared.dir.domain_of_switch.get(&s).copied()
        });
        let mut seg_of: BTreeMap<UpdateId, u32> = BTreeMap::new();
        for seg in &segs {
            for &id in &seg.updates {
                seg_of.insert(id, seg.index);
            }
        }
        let own_ids: DetSet<UpdateId> = all
            .iter()
            .filter(|u| {
                self.shared.dir.domain_of_switch.get(&u.switch) == Some(&self.domain)
            })
            .map(|u| u.id)
            .collect();
        // Foreign segments our updates depend on → barriers to hold, and
        // own segments foreign updates depend on → watches to report.
        let mut barrier_deps: BTreeMap<u32, DomainId> = BTreeMap::new();
        let mut watched: BTreeMap<u32, DetSet<DomainId>> = BTreeMap::new();
        let mut projected = Vec::new();
        for s in &full {
            let sd = self
                .shared
                .dir
                .domain_of_switch
                .get(&s.update.switch)
                .copied();
            if sd == Some(self.domain) {
                let mut deps = BTreeSet::new();
                for d in &s.deps {
                    if own_ids.contains(d) {
                        deps.insert(*d);
                    } else if let Some(&k) = seg_of.get(d) {
                        deps.insert(barrier_id(event.id, k));
                        barrier_deps.insert(k, segs[k as usize].domain);
                    }
                }
                projected.push(ScheduledUpdate {
                    update: s.update,
                    deps,
                });
            } else if let Some(upstream) = sd {
                for d in &s.deps {
                    if let Some(&k) = seg_of.get(d) {
                        if segs[k as usize].domain == self.domain {
                            watched.entry(k).or_default().insert(upstream);
                        }
                    }
                }
            }
        }
        for (k, downstream) in barrier_deps {
            let quorum = self.downstream_quorum(downstream);
            let st = self
                .barriers
                .entry((event.id, k))
                .or_insert_with(BarrierState::new);
            if st.expected.is_none() && !st.released {
                st.expected = Some(BarrierExpect { downstream, quorum });
                // Kept for re-forwarding if the downstream domain goes
                // quiet: its copy of the forwarded event may have been lost.
                let fwd = Event {
                    forwarded: true,
                    ..*event
                };
                self.reforwards.insert((event.id, k), (downstream, fwd), ctx.now());
            }
            self.check_barrier_release(ctx, (event.id, k));
        }
        for (k, ups) in watched {
            let remaining: DetSet<UpdateId> = segs[k as usize]
                .updates
                .iter()
                .copied()
                .filter(|&id| !self.pending.is_acked(id))
                .collect();
            let drained = remaining.is_empty();
            self.seg_watch.insert(
                (event.id, k),
                SegWatch {
                    remaining,
                    upstreams: ups.into_iter().collect(),
                    pending_receipts: DetSet::new(),
                    sending: false,
                },
            );
            if drained {
                self.start_segment_report(ctx, (event.id, k));
            }
        }
        self.arm_retry(ctx);
        projected
    }

    /// Distinct downstream reporters required before a barrier releases:
    /// enough that at least one is honest under the mode's fault model.
    fn downstream_quorum(&self, d: DomainId) -> usize {
        if self.shared.cfg.mode.is_cicero() {
            let n = self.remote_members.get(&d).map(|m| m.len()).unwrap_or(1);
            (n.saturating_sub(1)) / 3 + 1
        } else {
            // Centralized / crash-tolerant controllers never equivocate in
            // the fault model; a single report suffices.
            1
        }
    }

    /// Acks the barrier id (releasing held boundary updates) once a quorum
    /// of the expected downstream domain has reported its segment applied.
    fn check_barrier_release(&mut self, ctx: &mut dyn Host<Net, Obs>, key: (EventId, u32)) {
        {
            let Some(st) = self.barriers.get(&key) else {
                return;
            };
            if st.released {
                return;
            }
            let Some(exp) = st.expected.as_ref() else {
                return;
            };
            let have = st
                .signers
                .iter()
                .filter(|(d, _)| *d == exp.downstream)
                .count();
            if have < exp.quorum {
                return;
            }
        }
        if let Some(st) = self.barriers.get_mut(&key) {
            st.released = true;
        }
        self.reforwards.remove(&key);
        ctx.observe(Obs::BoundaryReleased {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        let mut extra = SimDuration::ZERO;
        if self.shared.cfg.mode.is_cicero() {
            extra = self.shared.cfg.costs.bls_verify;
        }
        let ready = self.pending.ack(barrier_id(key.0, key.1), ctx.now());
        for u in ready {
            self.send_update_delayed(ctx, u, extra);
        }
        self.arm_retry(ctx);
    }

    /// First transmission of a drained segment's report to every controller
    /// of every upstream domain holding a barrier on it.
    pub(super) fn start_segment_report(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        key: (EventId, u32),
    ) {
        let targets: Vec<(DomainId, ControllerId)> = {
            let Some(w) = self.seg_watch.get(&key) else {
                return;
            };
            if w.sending {
                return;
            }
            w.upstreams
                .iter()
                .flat_map(|&d| {
                    self.remote_members
                        .get(&d)
                        .into_iter()
                        .flatten()
                        .map(move |&c| (d, c))
                })
                .collect()
        };
        let body = SegmentBody {
            event: key.0,
            segment: key.1,
            domain: self.domain,
            controller: self.id,
        };
        let signed = self.sign_segment(ctx, body);
        if let Some(w) = self.seg_watch.get_mut(&key) {
            w.sending = true;
            w.pending_receipts = targets.iter().map(|&(d, c)| (d, c.0)).collect();
        }
        if !targets.is_empty() {
            self.seg_reports.insert(key, (), ctx.now());
        }
        for (d, c) in targets {
            let Some(&node) = self.shared.dir.controller_node.get(&(d, c)) else {
                continue;
            };
            ctx.send(node, Net::SegmentApplied(signed.clone()));
        }
        ctx.observe(Obs::SegmentReported {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        self.arm_retry(ctx);
    }

    fn sign_segment(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        body: SegmentBody,
    ) -> Signed<SegmentBody> {
        let phase = self.view.phase();
        let msg_id = self.msg_id();
        if self.shared.cfg.mode.is_cicero() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
        }
        if self.shared.real_crypto() && self.shared.cfg.mode.is_cicero() {
            let key = self.identity.as_ref().expect("real mode identity");
            Signed::sign(labels::SEGMENT, body, phase, msg_id, key)
        } else {
            Signed {
                payload: body,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        }
    }

    fn sign_release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        body: ReleaseBody,
    ) -> Signed<ReleaseBody> {
        let phase = self.view.phase();
        let msg_id = self.msg_id();
        if self.shared.cfg.mode.is_cicero() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
        }
        if self.shared.real_crypto() && self.shared.cfg.mode.is_cicero() {
            let key = self.identity.as_ref().expect("real mode identity");
            Signed::sign(labels::RELEASE, body, phase, msg_id, key)
        } else {
            Signed {
                payload: body,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        }
    }

    /// Handles a downstream controller's segment-applied report.
    pub(super) fn on_segment_applied(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        m: Signed<SegmentBody>,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let body = m.payload;
        if body.controller != ControllerId(m.msg_id.origin) {
            return;
        }
        if self.shared.cfg.mode.is_cicero() && self.shared.real_crypto() {
            let pk = self
                .shared
                .keys
                .controller_pk
                .get(&(body.domain, body.controller));
            let valid = pk.map(|pk| m.verify(labels::SEGMENT, pk)).unwrap_or(false);
            if !valid {
                return;
            }
        }
        let fresh = {
            let st = self
                .barriers
                .entry((body.event, body.segment))
                .or_insert_with(BarrierState::new);
            st.signers.insert((body.domain, body.controller.0))
        };
        if fresh {
            // A counted signer is a durable fact: a restarted controller
            // must not demand the quorum twice (nor release without it).
            // Logged *before* the receipt goes out — the receipt stops the
            // downstream retransmitting, so if we crashed after sending but
            // before logging, the signer would be forgotten with no
            // retransmission left to re-teach it.
            self.log_record(&crate::msg::WalRecord::BarrierSigner {
                barrier: barrier_id(body.event, body.segment),
                domain: body.domain,
                controller: body.controller,
            });
        }
        // Receipt unconditionally — it only means "stop retransmitting to
        // me", never "released" — so duplicates and reports arriving before
        // our own barrier exists still silence the downstream sender.
        let receipt = ReleaseBody {
            event: body.event,
            segment: body.segment,
            domain: self.domain,
            controller: self.id,
        };
        let signed = self.sign_release(ctx, receipt);
        if let Some(&node) = self
            .shared
            .dir
            .controller_node
            .get(&(body.domain, body.controller))
        {
            ctx.send(node, Net::BoundaryRelease(signed));
        }
        self.check_barrier_release(ctx, (body.event, body.segment));
    }

    /// Crash-recovery replay of a logged barrier signer (ctrl/durable.rs).
    pub(super) fn restore_barrier_signer(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        barrier: UpdateId,
        domain: DomainId,
        controller: ControllerId,
    ) {
        let key = (barrier.event, barrier.seq.wrapping_sub(BARRIER_SEQ_BASE));
        {
            let st = self.barriers.entry(key).or_insert_with(BarrierState::new);
            st.signers.insert((domain, controller.0));
        }
        self.check_barrier_release(ctx, key);
    }

    /// Every counted barrier signer, as WAL records (snapshot body).
    pub(super) fn barrier_signer_records(&self) -> Vec<crate::msg::WalRecord> {
        let mut out = Vec::new();
        for (&(event, segment), st) in self.barriers.iter() {
            for &(domain, controller) in st.signers.iter() {
                out.push(crate::msg::WalRecord::BarrierSigner {
                    barrier: barrier_id(event, segment),
                    domain,
                    controller: ControllerId(controller),
                });
            }
        }
        out
    }

    /// `true` when the cross-domain handshake holds no unfinished work:
    /// every registered barrier released and every own-segment watch
    /// receipted (snapshot quiescence check).
    pub(super) fn handshake_idle(&self) -> bool {
        self.barriers
            .iter()
            .all(|(_, st)| st.released || st.expected.is_none())
            && self
                .seg_watch
                .iter()
                .all(|(_, w)| w.sending && w.pending_receipts.is_empty())
    }

    /// Handles an upstream controller's receipt for our segment report.
    pub(super) fn on_boundary_release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        m: Signed<ReleaseBody>,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let body = m.payload;
        if body.controller != ControllerId(m.msg_id.origin) {
            return;
        }
        if self.shared.cfg.mode.is_cicero() && self.shared.real_crypto() {
            let pk = self
                .shared
                .keys
                .controller_pk
                .get(&(body.domain, body.controller));
            let valid = pk.map(|pk| m.verify(labels::RELEASE, pk)).unwrap_or(false);
            if !valid {
                return;
            }
        }
        let key = (body.event, body.segment);
        let done = match self.seg_watch.get_mut(&key) {
            Some(w) => {
                w.pending_receipts.remove(&(body.domain, body.controller.0));
                w.sending && w.pending_receipts.is_empty()
            }
            None => false,
        };
        if done {
            self.seg_watch.remove(&key);
            self.seg_reports.remove(&key);
        }
    }

    /// Retransmits overdue handshake traffic (driven by the retry timer):
    /// segment reports still awaiting receipts, and (on the forwarding
    /// controller) events whose downstream domain has not reported yet.
    pub(super) fn sweep_handshake(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let now = ctx.now();
        for due in self.seg_reports.sweep(now) {
            match due {
                Due::Resend(key, (), attempt) => self.resend_segment_report(ctx, key, attempt),
                Due::Exhausted(key, ()) => {
                    self.seg_watch.remove(&key);
                }
            }
        }
        if !self.is_lowest() {
            return;
        }
        // The forwarded event (sent to one downstream member) may have been
        // lost, or its target crashed. Re-forward to every member of the
        // downstream domain; `seen_events` dedups over there. Stamp our own
        // domain as origin so receivers verify against the actual
        // forwarder's key.
        for due in self.reforwards.sweep(now) {
            let Due::Resend((event_id, _), (d, event), attempt) = due else {
                continue;
            };
            let members = self.remote_members.get(&d).cloned().unwrap_or_default();
            let refwd = Event {
                origin: self.domain,
                ..event
            };
            for c in members {
                let Some(&node) = self.shared.dir.controller_node.get(&(d, c)) else {
                    continue;
                };
                let signed = self.sign_forward(ctx, refwd);
                ctx.send(node, Net::ForwardedEvent(signed));
            }
            ctx.observe(Obs::ForwardRetransmitted {
                domain: self.domain,
                controller: self.id.0,
                event: event_id,
                attempt,
            });
        }
    }

    /// Retransmits a segment report to the targets that have not receipted.
    fn resend_segment_report(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        key: (EventId, u32),
        attempt: u32,
    ) {
        let targets: Vec<(DomainId, u32)> = match self.seg_watch.get(&key) {
            Some(w) => w.pending_receipts.iter().copied().collect(),
            None => return,
        };
        let body = SegmentBody {
            event: key.0,
            segment: key.1,
            domain: self.domain,
            controller: self.id,
        };
        let signed = self.sign_segment(ctx, body);
        for (d, c) in targets {
            let Some(&node) = self
                .shared
                .dir
                .controller_node
                .get(&(d, ControllerId(c)))
            else {
                continue;
            };
            ctx.send(node, Net::SegmentApplied(signed.clone()));
        }
        ctx.observe(Obs::SegmentRetransmitted {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
            attempt,
        });
    }
}
