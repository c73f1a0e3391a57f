//! Spans recorded from outside the program under test.
//!
//! This benchmark changes no library code, so a span is taken around each
//! *call into* a layer. What a call spends in the layers beneath it is
//! estimated by a **shadow**: after the call returns, the benchmark repeats
//! the inner work on a copy of the op's own data (peel the op's onion again,
//! route the op's own `(from, hopid)` pairs again) inside a span whose parent
//! is the call it explains. A shadow is extra work the untraced run does not
//! do, so its time is taken out of the op's time before anything is compared
//! with the untraced run.
//!
//! Spans of one op live in a small buffer that is folded into per-name totals
//! when the op ends; only the first [`KEEP_OPS`] ops keep their spans for the
//! trace file. Memory use is therefore flat however long the run is.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Ops whose spans are kept verbatim for the trace file.
pub const KEEP_OPS: u64 = 2000;

/// Every span the benchmark records. The name of a layer span is the stem of
/// the per-layer metric it feeds (`core.tha.deploy` → `core.tha.deploy_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Sp {
    Op,
    Inputs,
    Verify,
    ThaDeploy,
    StorageInsert,
    ThaRemove,
    HintRefresh,
    BuildOnion,
    Drive,
    /// Getting a shadow's inputs ready (copying the bytes a call is about to
    /// consume): shadow time that explains no layer.
    ShadowPrep,
    ShadowPeel,
    ShadowRoute,
    MpForm,
    MpSend,
    ShadowEcEncode,
    ShadowEcReconstruct,
    Retrieve,
    ShadowFileSeal,
    ShadowFileOpen,
    ShadowKeygen,
    ShadowBoxSeal,
    ShadowBoxOpen,
    Leave,
    RepairLeave,
    Join,
    RepairJoin,
}

const N_SPANS: usize = Sp::RepairJoin as usize + 1;

impl Sp {
    pub const ALL: [Sp; N_SPANS] = [
        Sp::Op,
        Sp::Inputs,
        Sp::Verify,
        Sp::ThaDeploy,
        Sp::StorageInsert,
        Sp::ThaRemove,
        Sp::HintRefresh,
        Sp::BuildOnion,
        Sp::Drive,
        Sp::ShadowPrep,
        Sp::ShadowPeel,
        Sp::ShadowRoute,
        Sp::MpForm,
        Sp::MpSend,
        Sp::ShadowEcEncode,
        Sp::ShadowEcReconstruct,
        Sp::Retrieve,
        Sp::ShadowFileSeal,
        Sp::ShadowFileOpen,
        Sp::ShadowKeygen,
        Sp::ShadowBoxSeal,
        Sp::ShadowBoxOpen,
        Sp::Leave,
        Sp::RepairLeave,
        Sp::Join,
        Sp::RepairJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Sp::Op => "bench.op",
            Sp::Inputs => "bench.inputs",
            Sp::Verify => "bench.verify",
            Sp::ThaDeploy => "core.tha.deploy",
            Sp::StorageInsert => "pastry.storage.insert",
            Sp::ThaRemove => "core.tha.remove",
            Sp::HintRefresh => "core.transit.hint_refresh",
            Sp::BuildOnion => "core.tunnel.build_onion",
            Sp::Drive => "core.netdrive.drive",
            Sp::ShadowPrep => "bench.shadow_prep",
            Sp::ShadowPeel => "crypto.onion.peel",
            Sp::ShadowRoute => "pastry.overlay.route",
            Sp::MpForm => "core.multipath.form",
            Sp::MpSend => "core.multipath.send",
            Sp::ShadowEcEncode => "crypto.ec.encode",
            Sp::ShadowEcReconstruct => "crypto.ec.reconstruct",
            Sp::Retrieve => "core.retrieval.retrieve",
            Sp::ShadowFileSeal => "crypto.cipher.file_seal",
            Sp::ShadowFileOpen => "crypto.cipher.file_open",
            Sp::ShadowKeygen => "crypto.pki.keygen",
            Sp::ShadowBoxSeal => "crypto.pki.box_seal",
            Sp::ShadowBoxOpen => "crypto.pki.box_open",
            Sp::Leave => "pastry.overlay.leave",
            Sp::RepairLeave => "pastry.storage.repair_leave",
            Sp::Join => "pastry.overlay.join",
            Sp::RepairJoin => "pastry.storage.repair_join",
        }
    }

    /// Whether the span repeats work for attribution (see the module docs).
    pub fn is_shadow(self) -> bool {
        matches!(
            self,
            Sp::ShadowPrep
                | Sp::ShadowPeel
                | Sp::ShadowRoute
                | Sp::ShadowEcEncode
                | Sp::ShadowEcReconstruct
                | Sp::ShadowFileSeal
                | Sp::ShadowFileOpen
                | Sp::ShadowKeygen
                | Sp::ShadowBoxSeal
                | Sp::ShadowBoxOpen
        )
    }
}

/// Handle to an open span; `SpanId::OFF` when the op is not being traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const OFF: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Sp,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span within the same op, `u32::MAX` for the root.
    parent: u32,
    op: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of one span name over every traced op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time of the spans this one is the parent of.
    pub self_ns: u64,
    pub allocs: u64,
}

/// What the traced ops added up to.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub ops: u64,
    pub by_name: Vec<Totals>,
    /// Per-op time with the shadows taken out, the number comparable with an
    /// untraced op.
    pub net_ns: Vec<u64>,
    /// Part of `net_ns` that fell inside a named child span of the op.
    pub covered_ns: u64,
    /// Allocations and bytes of the ops, shadows taken out.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl TraceSummary {
    pub fn totals(&self, name: Sp) -> Totals {
        self.by_name[name as usize]
    }

    /// Mean µs per traced op spent in `name` (all calls of one op summed).
    pub fn mean_us(&self, name: Sp) -> f64 {
        per(self.totals(name).total_ns as f64 / 1e3, self.ops)
    }

    /// As [`Self::mean_us`] for the span's self time.
    pub fn self_us(&self, name: Sp) -> f64 {
        per(self.totals(name).self_ns as f64 / 1e3, self.ops)
    }

    pub fn net_total_ns(&self) -> u64 {
        self.net_ns.iter().sum()
    }
}

fn per(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// Records spans for the ops it is switched on for.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    children_ns: Vec<u64>,
    kept: Vec<Span>,
    summary: TraceSummary,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: 0,
            // Sized once so that recording never allocates inside an op (the
            // allocation counts below would otherwise count the tracer).
            spans: Vec::with_capacity(256),
            stack: Vec::with_capacity(16),
            children_ns: Vec::with_capacity(256),
            kept: Vec::new(),
            summary: TraceSummary {
                by_name: vec![Totals::default(); N_SPANS],
                ..TraceSummary::default()
            },
        }
    }

    /// Whether the current op is being traced; shadows run only then.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start op number `op`, traced or not.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.on = traced;
        self.op = op;
        self.spans.clear();
        self.stack.clear();
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: Sp) -> SpanId {
        if !self.on {
            return SpanId::OFF;
        }
        let parent = self.stack.last().copied().unwrap_or(u32::MAX);
        self.open(name, parent)
    }

    /// Open a shadow span whose parent is the already closed span `of`.
    pub fn enter_shadow(&mut self, name: Sp, of: SpanId) -> SpanId {
        if !self.on {
            return SpanId::OFF;
        }
        debug_assert!(name.is_shadow());
        self.open(name, of.0)
    }

    fn open(&mut self, name: Sp, parent: u32) -> SpanId {
        let idx = self.spans.len() as u32;
        let (allocs, alloc_bytes) = alloc::allocated();
        self.stack.push(idx);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: self.op,
            allocs,
            alloc_bytes,
        });
        // Clock read last, so the bookkeeping above is outside the span.
        self.spans[idx as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(idx)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == SpanId::OFF {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = alloc::allocated();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        let s = &mut self.spans[id.0 as usize];
        s.end_ns = now;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
    }

    /// Fold the finished op into the totals.
    pub fn end_op(&mut self) {
        if !self.on || self.spans.is_empty() {
            return;
        }
        self.on = false;
        self.children_ns.clear();
        self.children_ns.resize(self.spans.len(), 0);
        let (mut shadow_ns, mut shadow_allocs, mut shadow_bytes) = (0u64, 0u64, 0u64);
        let mut covered = 0u64;
        for s in &self.spans {
            if s.parent != u32::MAX {
                self.children_ns[s.parent as usize] += s.dur();
            }
            if s.name.is_shadow() {
                shadow_ns += s.dur();
                shadow_allocs += s.allocs;
                shadow_bytes += s.alloc_bytes;
            } else if s.parent == 0 {
                covered += s.dur();
            }
        }
        for (s, kids) in self.spans.iter().zip(&self.children_ns) {
            let t = &mut self.summary.by_name[s.name as usize];
            t.calls += 1;
            t.total_ns += s.dur();
            t.self_ns += s.dur().saturating_sub(*kids);
            t.allocs += s.allocs;
        }
        let root = self.spans[0];
        debug_assert_eq!(root.name, Sp::Op);
        self.summary.ops += 1;
        self.summary
            .net_ns
            .push(root.dur().saturating_sub(shadow_ns));
        self.summary.covered_ns += covered;
        self.summary.allocs += root.allocs - shadow_allocs;
        self.summary.alloc_bytes += root.alloc_bytes - shadow_bytes;
        if self.op < KEEP_OPS {
            self.kept.extend_from_slice(&self.spans);
        }
    }

    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// The kept spans as a JSON array, one object per span.
    pub fn kept_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"shadow\":{}}}",
                s.name.name(),
                s.start_ns,
                s.end_ns,
                s.op,
                s.name.is_shadow()
            );
            out.push_str(if i + 1 < self.kept.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_shadows_leave_the_op() {
        let mut tr = Tracer::new();
        tr.begin_op(0, true);
        let op = tr.enter(Sp::Op);
        let d = tr.enter(Sp::Drive);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(d);
        let s = tr.enter_shadow(Sp::ShadowPeel, d);
        std::thread::sleep(std::time::Duration::from_millis(1));
        tr.exit(s);
        tr.exit(op);
        tr.end_op();
        let sum = tr.summary();
        let (op_t, drive, peel) = (
            sum.totals(Sp::Op),
            sum.totals(Sp::Drive),
            sum.totals(Sp::ShadowPeel),
        );
        assert_eq!(sum.ops, 1);
        assert_eq!(drive.self_ns, drive.total_ns - peel.total_ns);
        assert_eq!(sum.net_ns[0], op_t.total_ns - peel.total_ns);
        assert_eq!(sum.covered_ns, drive.total_ns);
        assert!(peel.total_ns >= 1_000_000 && drive.total_ns >= 2_000_000);
    }

    #[test]
    fn an_untraced_op_records_nothing() {
        let mut tr = Tracer::new();
        tr.begin_op(0, false);
        let op = tr.enter(Sp::Op);
        assert_eq!(op, SpanId::OFF);
        tr.exit(op);
        tr.end_op();
        assert_eq!(tr.summary().ops, 0);
        assert_eq!(tr.kept_json(), "[\n]");
    }
}
