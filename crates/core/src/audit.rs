//! Baseline-divergence auditor: the LLC's [`Mirror`] runs a Base-Victim
//! LLC and an uncompressed LLC in lockstep and explains the first
//! mismatch.
//!
//! The Base-Victim architecture's central guarantee (Section IV of the
//! paper) is that its Baseline cache holds *exactly* the lines an
//! uncompressed cache of the same geometry would hold. [`LlcMirror`]
//! turns it into an explaining oracle for [`bv_testkit::mirror::run`]:
//! after **every** operation it checks the Base-Victim invariants, that
//! a read hit the uncompressed cache exactly when it made a Baseline hit
//! (so every uncompressed miss is a Base-Victim miss or a Victim hit),
//! and that the Baseline contents equal the uncompressed contents. On
//! the first mismatch it reports which lines differ, which set they live
//! in, and the last few [`CacheEvent`]s recorded for that set, so the
//! decision that caused the divergence is visible, not just its
//! aftermath.
//!
//! A healthy build never diverges, so the oracle also supports *fault
//! injection*: [`Mirror::inject`] issues extra demand reads to the
//! Base-Victim side only, silently perturbing its replacement state the
//! way a policy bug would. The oracle is then expected to pinpoint the
//! first fill whose victim choice differs — `bvsim trace --audit
//! --inject N` uses this as a self-test of the event pipeline.

use crate::{
    BaseVictimLlc, HitKind, InclusionMode, LlcOrganization, LlcStats, NoInner, UncompressedLlc,
    VictimPolicyKind,
};
use bv_cache::{CacheGeometry, LineAddr, Policy, PolicyKind};
use bv_compress::{Bdi, CacheLine};
use bv_events::{CacheEvent, RingSink};
use bv_testkit::mirror::Mirror;
use bv_testkit::Rng;

/// The first point where the Baseline cache stopped mirroring the
/// uncompressed cache.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The set holding the first mismatched line (or the split read).
    pub set: usize,
    /// Lines the uncompressed cache holds but the Baseline cache lost.
    pub missing: Vec<LineAddr>,
    /// Lines the Baseline cache holds but the uncompressed cache does not.
    pub unexpected: Vec<LineAddr>,
    /// A read whose outcomes split wrongly: the line, whether the
    /// uncompressed cache hit, and where the Base-Victim side found it.
    pub read: Option<(LineAddr, bool, HitKind)>,
    /// The most recent events recorded for [`Divergence::set`], oldest
    /// first — the offending decision is the last fill/eviction here.
    pub context: Vec<CacheEvent>,
}

/// One operation of an LLC workload, as the inner level issues it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditOp {
    /// Demand read of a line address, filling on miss.
    Read(u64),
    /// L2 writeback; reaches the LLC only for a line the L2 can hold
    /// (see [`AuditOp::apply`]).
    Writeback(u64),
    /// Prefetch fill of a line address.
    Prefetch(u64),
}

impl AuditOp {
    /// The line address the op touches.
    #[must_use]
    pub fn addr(self) -> u64 {
        match self {
            AuditOp::Read(a) | AuditOp::Writeback(a) | AuditOp::Prefetch(a) => a,
        }
    }

    /// Applies the op to `llc` with line contents `data`: a read fills
    /// on a miss, a prefetch fills, and a writeback is issued only when
    /// `inner_holds` (the inner level writes back only lines it holds,
    /// which inclusion bounds by uncompressed residency) and the line is
    /// resident in `llc`. Returns where a read found its line; `None`
    /// for the other ops.
    pub fn apply<L: LlcOrganization + ?Sized>(
        self,
        llc: &mut L,
        data: CacheLine,
        inner_holds: bool,
    ) -> Option<HitKind> {
        let addr = LineAddr::new(self.addr());
        let mut inner = NoInner;
        match self {
            AuditOp::Read(_) => {
                let kind = llc.read(addr, &mut inner).kind;
                if !kind.is_hit() {
                    llc.fill(addr, data, &mut inner);
                }
                return Some(kind);
            }
            AuditOp::Writeback(_) => {
                if inner_holds && llc.contains(addr) {
                    llc.writeback(addr, data, &mut inner);
                }
            }
            AuditOp::Prefetch(_) => {
                llc.prefetch_fill(addr, data, &mut inner);
            }
        }
        None
    }
}

/// The randomized op stream `bvsim trace --audit` replays: `ops`
/// operations (70% reads, 20% writebacks, 10% prefetches) over an
/// address span of 4x the line capacity (at least 256 lines), so every
/// set sees steady eviction pressure.
#[must_use]
pub fn audit_ops(geom: CacheGeometry, ops: usize, seed: u64) -> Vec<AuditOp> {
    let mut rng = Rng::new(seed);
    let span = 256u64.max((geom.sets() * geom.ways() * 4) as u64);
    rng.vec_of(ops, |r| {
        let a = r.below(span);
        match r.below(10) {
            0..=6 => AuditOp::Read(a),
            7..=8 => AuditOp::Writeback(a),
            _ => AuditOp::Prefetch(a),
        }
    })
}

/// Address-stable memory contents with mixed compressibility: a line's
/// bytes are a function of its address only, so size-aware policies see
/// identical sizes on both sides.
#[must_use]
pub fn line_for(key: u64) -> CacheLine {
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    match h % 4 {
        0 => CacheLine::zeroed(),
        1 => CacheLine::from_u64_words(&core::array::from_fn(|i| {
            0x4000_0000_0000 + key * 64 + i as u64
        })),
        2 => CacheLine::from_u64_words(&[h; 8]),
        _ => CacheLine::from_u64_words(&core::array::from_fn(|i| {
            h.wrapping_mul(i as u64 + 1).wrapping_add((i as u64) << 55)
        })),
    }
}

fn sorted(mut v: Vec<LineAddr>) -> Vec<LineAddr> {
    v.sort_by_key(|a| a.get());
    v
}

/// The lines of `lines` that `other` lacks.
fn absent(lines: &[LineAddr], other: &[LineAddr]) -> Vec<LineAddr> {
    lines
        .iter()
        .filter(|a| !other.contains(a))
        .copied()
        .collect()
}

/// An inclusive Base-Victim LLC and an uncompressed LLC of one geometry
/// and baseline policy, with memory contents from `data_for` (which
/// must be address-stable so both sides see identical compressed
/// sizes).
///
/// The Base-Victim side records into a [`RingSink`] (capacity scaled to
/// the context request), drained after every operation into a rolling
/// event log; on divergence the log is filtered to the offending set.
pub struct LlcMirror<F> {
    unc: UncompressedLlc,
    bv: BaseVictimLlc<Policy, RingSink>,
    data_for: F,
    context: usize,
    log: Vec<CacheEvent>,
    events_seen: u64,
    read: Option<(LineAddr, bool, HitKind)>,
}

impl<F: Fn(u64) -> CacheLine> LlcMirror<F> {
    /// Builds both sides; a divergence reports up to `context` of the
    /// diverging set's most recent events.
    #[must_use]
    pub fn new(
        geom: CacheGeometry,
        policy: PolicyKind,
        victim: VictimPolicyKind,
        context: usize,
        data_for: F,
    ) -> LlcMirror<F> {
        let context = context.max(1);
        LlcMirror {
            unc: UncompressedLlc::new(geom, policy),
            bv: BaseVictimLlc::with_sink(
                geom,
                policy.instantiate(geom.sets(), geom.ways()),
                victim,
                InclusionMode::Inclusive,
                Box::new(Bdi::new()),
                RingSink::new(context * 64),
            ),
            data_for,
            context,
            log: Vec::new(),
            events_seen: 0,
            read: None,
        }
    }

    /// Total events drained from the Base-Victim side's ring.
    #[must_use]
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// The (uncompressed, Base-Victim) statistics.
    #[must_use]
    pub fn stats(&self) -> (&LlcStats, &LlcStats) {
        (self.unc.stats(), self.bv.stats())
    }
}

impl<F: Fn(u64) -> CacheLine> Mirror for LlcMirror<F> {
    type Op = AuditOp;
    type Mismatch = Divergence;

    fn apply(&mut self, op: AuditOp) {
        let data = (self.data_for)(op.addr());
        // The check after the previous op proved Baseline == uncompressed,
        // so uncompressed residency is what the inner level can hold.
        let inner_holds = self.unc.contains(LineAddr::new(op.addr()));
        let hu = op.apply(&mut self.unc, data, inner_holds);
        let hb = op.apply(&mut self.bv, data, inner_holds);
        self.read = hu
            .zip(hb)
            .map(|(u, b)| (LineAddr::new(op.addr()), u.is_hit(), b));
    }

    /// The synthetic fault: demand reads the uncompressed side never
    /// sees, one per resident Baseline line, in address order. Contents
    /// stay identical at first; only the replacement state skews (every
    /// set's recency becomes address order), so the divergence surfaces
    /// at a later fill — exactly the delayed-cause shape the event
    /// context exists to explain.
    fn inject(&mut self) {
        for addr in sorted(self.bv.baseline_lines()) {
            let _ = self.bv.read(addr, &mut NoInner);
        }
    }

    fn check(&mut self) -> Result<(), Divergence> {
        self.bv.assert_invariants();
        let fresh = self.bv.drain_events();
        self.events_seen += fresh.len() as u64;
        self.log.extend(fresh);

        let read = self
            .read
            .take()
            .filter(|&(_, hu, hb)| hu != matches!(hb, HitKind::Base(_)));
        let base = sorted(self.bv.baseline_lines());
        let mirror = sorted(self.unc.resident_lines());
        if read.is_none() && base == mirror {
            // Only the recent tail can ever be reported.
            let excess = self.log.len().saturating_sub(self.context * 256);
            self.log.drain(..excess);
            return Ok(());
        }
        let missing = absent(&mirror, &base);
        let unexpected = absent(&base, &mirror);
        let first = read
            .map(|(a, ..)| a)
            .or(missing.first().or(unexpected.first()).copied());
        let set = first.map_or(0, |a| self.bv.geometry().set_index(a.get()));
        let set_events: Vec<CacheEvent> = self
            .log
            .iter()
            .filter(|e| e.set as usize == set)
            .copied()
            .collect();
        let start = set_events.len().saturating_sub(self.context);
        Err(Divergence {
            set,
            missing,
            unexpected,
            read,
            context: set_events[start..].to_vec(),
        })
    }
}

/// One event as a fixed-width audit-log line.
#[must_use]
pub fn describe_event(ev: &CacheEvent) -> String {
    use bv_events::EventKind as K;
    let way = if ev.way == CacheEvent::NO_WAY {
        "  -".to_string()
    } else {
        format!("{:>3}", ev.way)
    };
    let detail = match ev.kind {
        K::Fill { tag, size } | K::PrefetchFill { tag, size } => {
            format!("tag=0x{tag:x} size={size}")
        }
        K::DemandHit { tag } => format!("tag=0x{tag:x}"),
        K::DemandMiss => String::new(),
        K::VictimHit { tag, size }
        | K::VictimInsert { tag, size }
        | K::VictimInsertFail { tag, size }
        | K::Writeback { tag, size } => format!("tag=0x{tag:x} size={size}"),
        K::SilentDrop { tag, cause } => format!("tag=0x{tag:x} cause={}", cause.name()),
        K::Eviction { tag, cause } => format!("tag=0x{tag:x} cause={}", cause.name()),
        K::Compression { encoder, size } => format!("encoder={encoder} size={size}"),
    };
    format!(
        "seq={:>8} set={:>4} way={} {:<18} {}",
        ev.seq,
        ev.set,
        way,
        ev.kind.name(),
        detail
    )
    .trim_end()
    .to_string()
}

/// Renders a [`Divergence`] found after op `op` as the multi-line
/// report `bvsim trace --audit` prints.
#[must_use]
pub fn render_divergence(op: usize, d: &Divergence) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "baseline divergence after op {op} in set {}\n",
        d.set
    ));
    if let Some((addr, hu, hb)) = d.read {
        let bv = match hb {
            HitKind::Base(_) => "a Baseline hit",
            HitKind::Victim(_) => "a Victim hit",
            HitKind::Miss => "a miss",
        };
        out.push_str(&format!(
            "  read 0x{:x}: uncompressed {}, base-victim made {bv}\n",
            addr.get(),
            if hu { "hit" } else { "missed" }
        ));
    }
    let list = |addrs: &[LineAddr]| {
        addrs
            .iter()
            .map(|a| format!("0x{:x}", a.get()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if !d.missing.is_empty() {
        out.push_str(&format!(
            "  missing from Baseline (mirror holds): {}\n",
            list(&d.missing)
        ));
    }
    if !d.unexpected.is_empty() {
        out.push_str(&format!(
            "  unexpected in Baseline (mirror lacks): {}\n",
            list(&d.unexpected)
        ));
    }
    if d.context.is_empty() {
        out.push_str("  no events recorded for this set\n");
    } else {
        out.push_str(&format!(
            "  last {} event(s) for set {}:\n",
            d.context.len(),
            d.set
        ));
        for ev in &d.context {
            out.push_str("    ");
            out.push_str(&describe_event(ev));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_testkit::mirror::run;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(4096, 4, 64)
    }

    fn mirror(geom: CacheGeometry, policy: PolicyKind) -> LlcMirror<fn(u64) -> CacheLine> {
        LlcMirror::new(geom, policy, VictimPolicyKind::EcmLargestBase, 8, line_for)
    }

    #[test]
    fn clean_run_never_diverges() {
        for policy in PolicyKind::ALL {
            let mut m = mirror(geom(), policy);
            let report = run(&mut m, audit_ops(geom(), 2000, 7), None);
            assert!(
                report.divergence.is_none(),
                "{policy:?}: spurious divergence: {:?}",
                report.divergence
            );
            assert!(report.passed());
            assert_eq!(report.ops_run, 2000);
            assert!(m.events_seen() > 0, "traced run recorded no events");
        }
    }

    #[test]
    fn injected_fault_is_pinpointed_with_set_context() {
        let mut m = mirror(geom(), PolicyKind::Lru);
        let report = run(&mut m, audit_ops(geom(), 2000, 3), Some(200));
        assert!(report.injected);
        assert!(report.passed());
        let (op, d) = report
            .divergence
            .expect("injected replacement fault must be caught");
        assert!(op >= 200, "divergence cannot precede the injection");
        assert!(
            !d.missing.is_empty() || !d.unexpected.is_empty(),
            "divergence must name at least one mismatched line"
        );
        // Set-local context: every reported event belongs to the set the
        // mismatch was found in, and the report stays within the bound.
        assert!(!d.context.is_empty(), "divergence carried no event context");
        assert!(d.context.len() <= 8);
        for ev in &d.context {
            assert_eq!(ev.set as usize, d.set);
        }
        // The rendering names the op, the set, and the events.
        let text = render_divergence(op, &d);
        assert!(text.contains(&format!("after op {op}")));
        assert!(text.contains(&format!("set {}", d.set)));
        assert!(text.contains("seq="));
    }

    /// A smaller geometry than the default audit's: still clean without
    /// injection, still caught with it.
    #[test]
    fn explicit_op_streams_audit_cleanly_and_catch_injection() {
        let small = CacheGeometry::new(1024, 4, 64);
        let ops = audit_ops(small, 1_000, 11);
        let clean = run(&mut mirror(small, PolicyKind::Lru), ops.clone(), None);
        assert!(
            clean.passed(),
            "clean stream diverged: {:?}",
            clean.divergence
        );
        assert_eq!(clean.ops_run, ops.len());
        let faulted = run(&mut mirror(small, PolicyKind::Lru), ops, Some(100));
        assert!(faulted.injected);
        assert!(faulted.passed(), "injected fault must be caught");
    }

    #[test]
    fn split_reads_are_rendered() {
        let d = Divergence {
            set: 2,
            missing: Vec::new(),
            unexpected: Vec::new(),
            read: Some((LineAddr::new(0x42), true, HitKind::Miss)),
            context: Vec::new(),
        };
        let text = render_divergence(9, &d);
        assert!(text.contains("after op 9 in set 2"), "{text}");
        assert!(
            text.contains("read 0x42: uncompressed hit, base-victim made a miss"),
            "{text}"
        );
    }

    #[test]
    fn describe_event_covers_every_kind() {
        use bv_events::{DropCause, EventKind, EvictCause};
        let kinds = [
            EventKind::Fill { tag: 1, size: 4 },
            EventKind::PrefetchFill { tag: 1, size: 4 },
            EventKind::DemandHit { tag: 1 },
            EventKind::DemandMiss,
            EventKind::VictimHit { tag: 1, size: 4 },
            EventKind::VictimInsert { tag: 1, size: 4 },
            EventKind::VictimInsertFail { tag: 1, size: 4 },
            EventKind::SilentDrop {
                tag: 1,
                cause: DropCause::Displaced,
            },
            EventKind::Writeback { tag: 1, size: 4 },
            EventKind::Eviction {
                tag: 1,
                cause: EvictCause::Replacement,
            },
            EventKind::Compression {
                encoder: 0,
                size: 4,
            },
        ];
        for kind in kinds {
            let line = describe_event(&CacheEvent::new(3, 1, kind));
            assert!(line.contains(kind.name()), "{line}");
            assert!(line.contains("set=   3"), "{line}");
        }
    }
}
