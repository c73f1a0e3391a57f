//! Structured observability for the TAP simulation stack.
//!
//! The simulator crates used to report behaviour through ad-hoc `println!`
//! calls and hand-carried tallies. This crate replaces that with three small,
//! dependency-free primitives that are cheap enough to leave enabled:
//!
//! * [`Counter`] — a monotonically increasing atomic count.
//! * [`Histogram`] — a fixed-footprint log₂-bucketed value distribution
//!   (65 buckets cover the whole `u64` domain; recording is two relaxed
//!   atomic adds and two compare-exchange loops for min/max).
//! * [`Journal`] — the one destination for discrete, timestamped events
//!   (timer drift, THA takeovers, replica evictions): it keeps the most
//!   recent `cap` of them in a ring buffer. A registry without one drops
//!   events before their detail is formatted.
//!
//! Instruments live in a [`Registry`], are created on first use by name, and
//! can be snapshotted at any point into a [`MetricsReport`] — an owned,
//! inert value that renders to JSON with [`MetricsReport::to_json`]. Names
//! are dotted paths by convention (`netsim.queue_delay_us`,
//! `pastry.route.hops`), which keeps the JSON diff-friendly and greppable.
//!
//! All instruments use relaxed atomics: totals are exact, but a snapshot
//! taken while other threads record may tear *across* instruments (e.g. a
//! counter may include an op whose histogram sample is not yet visible).
//! For the simulator — single-threaded per experiment, snapshotted at the
//! end — this never matters.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in a [`Histogram`]: one for zero plus one per
/// possible bit length of a non-zero `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed distribution of `u64` samples.
///
/// Bucket 0 holds exactly the value `0`; bucket `i ≥ 1` holds the values
/// with bit length `i`, i.e. `[2^(i-1), 2^i - 1]`. The top bucket (index
/// 64) therefore ends at `u64::MAX`. Alongside the buckets the histogram
/// tracks exact count, sum, min, and max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in: its bit length.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive value range `[lo, hi]` of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // `fetch_min`/`fetch_max` are compare-exchange loops even when the
        // sample does not extend the range, which is nearly always: look
        // first. A concurrent recorder can only move `min` down and `max`
        // up, so a stale read either skips an update that would have been a
        // no-op or makes one that turns out to be.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Fold an owned snapshot back into this histogram: bucket counts,
    /// count, and sum add; min/max widen. Empty snapshots are a no-op (so
    /// an untouched min stays at its sentinel).
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for b in &snap.buckets {
            self.buckets[Self::bucket_index(b.lo)].fetch_add(b.count, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.min.fetch_min(snap.min, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// An owned copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let n = c.load(Ordering::Relaxed);
                    (n > 0).then(|| BucketCount {
                        lo: Self::bucket_bounds(i).0,
                        hi: Self::bucket_bounds(i).1,
                        count: n,
                    })
                })
                .collect(),
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Smallest value the bucket admits.
    pub lo: u64,
    /// Largest value the bucket admits.
    pub hi: u64,
    /// Samples recorded in the bucket.
    pub count: u64,
}

/// Owned, inert state of a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Smallest sample, or 0 when empty.
    pub min: u64,
    /// Largest sample, or 0 when empty.
    pub max: u64,
    /// Non-empty buckets in ascending value order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 ≤ q ≤ 1).
    /// Log-bucketed, so the answer is exact to within a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.hi.min(self.max);
            }
        }
        self.max
    }
}

/// A discrete, timestamped occurrence worth journaling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual-time microseconds (the stack's `SimTime`), or wall micros.
    pub at_micros: u64,
    /// Short machine-readable kind, e.g. `"netsim.timer_drift"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A bounded ring buffer of the most recent events.
#[derive(Debug)]
pub struct Journal {
    cap: usize,
    ring: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl Journal {
    /// A journal keeping at most `cap` events (older ones are evicted).
    pub fn new(cap: usize) -> Self {
        Journal {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::with_capacity(cap.clamp(1, 1024))),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("journal lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Keep `event`, evicting the oldest one at capacity.
    fn push(&self, event: Event) {
        let mut ring = self.ring.lock().expect("journal lock");
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

/// A named family of instruments plus an optional event journal.
///
/// Cloneable handles are cheap (`Arc` inside); instruments are created on
/// first use and shared by name thereafter.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    journal: Mutex<Option<Arc<Journal>>>,
    /// Whether `journal` holds one: [`Registry::emit`] reads this, not the
    /// lock, when none is installed. Stored (`Release`) after a journal is
    /// installed; `emit`'s `Acquire` load pairs with it, and `emit` still
    /// reads the journal itself under the lock.
    has_journal: AtomicBool,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Registry {
    /// A fresh registry with no instruments and no journal.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.inner.counters.lock().expect("registry lock");
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.inner.histograms.lock().expect("registry lock");
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Install a [`Journal`] of capacity `cap` (replacing any earlier one)
    /// and return it; its retained events appear in subsequent
    /// [`Registry::snapshot`]s.
    pub fn install_journal(&self, cap: usize) -> Arc<Journal> {
        let journal = Arc::new(Journal::new(cap));
        *self.inner.journal.lock().expect("registry lock") = Some(journal.clone());
        self.inner.has_journal.store(true, Ordering::Release);
        journal
    }

    /// Emit an event to the installed journal. Without one the event is
    /// dropped before its detail is formatted or a lock taken.
    pub fn emit(&self, at_micros: u64, kind: &str, detail: fmt::Arguments<'_>) {
        if !self.inner.has_journal.load(Ordering::Acquire) {
            return;
        }
        let journal = self.inner.journal.lock().expect("registry lock").clone();
        if let Some(journal) = journal {
            journal.push(Event {
                at_micros,
                kind: kind.to_owned(),
                detail: detail.to_string(),
            });
        }
    }

    /// Fold `report` into this registry: counters add, histogram buckets
    /// add, and events re-emit into the installed journal (so its capacity
    /// bound still holds). Instruments absent here are created.
    ///
    /// This is how per-trial registries from a parallel run collapse into
    /// one figure-level report: counters and histograms are order-free
    /// sums, and absorbing in trial order keeps journaled events
    /// deterministic at any thread count.
    pub fn absorb(&self, report: &MetricsReport) {
        for (name, v) in &report.counters {
            self.counter(name).add(*v);
        }
        for (name, h) in &report.histograms {
            self.histogram(name).absorb(h);
        }
        for e in &report.events {
            self.emit(e.at_micros, &e.kind, format_args!("{}", e.detail));
        }
    }

    /// Snapshot `other` and fold it in — see [`Registry::absorb`].
    pub fn merge(&self, other: &Registry) {
        self.absorb(&other.snapshot());
    }

    /// An owned snapshot of every instrument (and journaled events, if a
    /// journal is installed).
    pub fn snapshot(&self) -> MetricsReport {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let events = self
            .inner
            .journal
            .lock()
            .expect("registry lock")
            .as_ref()
            .map(|j| j.snapshot())
            .unwrap_or_default();
        MetricsReport {
            counters,
            histograms,
            events,
        }
    }
}

/// Owned, inert snapshot of a [`Registry`]: what experiments hand back and
/// what renders to JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Journaled events, oldest first (empty without a journal).
    pub events: Vec<Event>,
}

impl MetricsReport {
    /// Counter value, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Render the report as a single JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 3},
    ///   "histograms": {"name": {"count": 2, "sum": 7, "min": 3, "max": 4,
    ///                            "buckets": [{"lo": 2, "hi": 3, "count": 2}]}},
    ///   "events": [{"at_us": 12, "kind": "k", "detail": "d"}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        push_joined(&mut out, self.counters.iter(), |out, (k, v)| {
            push_json_str(out, k);
            out.push(':');
            out.push_str(&v.to_string());
        });
        out.push_str("},\"histograms\":{");
        push_joined(&mut out, self.histograms.iter(), |out, (k, h)| {
            push_json_str(out, k);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, h.min, h.max
            ));
            push_joined(out, h.buckets.iter(), |out, b| {
                out.push_str(&format!(
                    "{{\"lo\":{},\"hi\":{},\"count\":{}}}",
                    b.lo, b.hi, b.count
                ));
            });
            out.push_str("]}");
        });
        out.push_str("},\"events\":[");
        push_joined(&mut out, self.events.iter(), |out, e| {
            out.push_str(&format!("{{\"at_us\":{},\"kind\":", e.at_micros));
            push_json_str(out, &e.kind);
            out.push_str(",\"detail\":");
            push_json_str(out, &e.detail);
            out.push('}');
        });
        out.push_str("]}");
        out
    }
}

fn push_joined<T>(
    out: &mut String,
    items: impl Iterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
}

/// Append `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_are_tight_and_tile() {
        // Every bucket's bounds admit exactly the values that index to it,
        // and consecutive buckets tile the u64 domain.
        let mut expected_lo = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert!(lo <= hi);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "buckets must end exactly at u64::MAX");
    }

    #[test]
    fn histogram_records_edge_values() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.sum, u64::MAX.wrapping_add(1)); // documented wrapping
        assert_eq!(s.buckets.len(), 3);
        assert_eq!(
            s.buckets[0],
            BucketCount {
                lo: 0,
                hi: 0,
                count: 1
            }
        );
        assert_eq!(
            s.buckets[1],
            BucketCount {
                lo: 1,
                hi: 1,
                count: 1
            }
        );
        assert_eq!(
            s.buckets[2],
            BucketCount {
                lo: 1 << 63,
                hi: u64::MAX,
                count: 1
            }
        );
    }

    #[test]
    fn histogram_range_follows_every_sample() {
        // `record` only touches min/max when a sample extends the range:
        // first sample, repeats of either end, interior values and
        // extensions at both ends must all leave the exact running range.
        let h = Histogram::new();
        let samples = [7u64, 7, 9, 8, 7, 9, 3, 5, 12, 12, 0, u64::MAX, 4];
        for (i, &v) in samples.iter().enumerate() {
            h.record(v);
            let s = h.snapshot();
            assert_eq!(Some(&s.min), samples[..=i].iter().min());
            assert_eq!(Some(&s.max), samples[..=i].iter().max());
        }
    }

    #[test]
    fn histogram_range_is_exact_under_concurrent_recorders() {
        // Whatever the interleaving, a lower min (higher max) is never
        // lost: the guard reads a value that can only be further out by
        // the time the RMW runs.
        let h = Histogram::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (h, start) = (&h, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..10_000u64 {
                        // Thread t walks outwards from the middle.
                        h.record(50_000 + t * 10_000 + i);
                        h.record(50_000 - t * 10_000 - i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max), (80_000, 10_001, 89_999));
    }

    #[test]
    fn histogram_boundary_values_split_buckets() {
        let h = Histogram::new();
        // 2^k - 1 and 2^k must land in adjacent buckets for every k.
        for k in 1..64u32 {
            h.record((1u64 << k) - 1);
            h.record(1u64 << k);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 126);
        for b in &s.buckets {
            // Each bucket got exactly its top (2^i - 1) and bottom (2^(i-1))
            // value, except bucket 1 (only 2^1-1 = 1) and 64 (only 2^63).
            assert!(b.count <= 2);
        }
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let median = s.quantile(0.5);
        // True median 50 lives in bucket [32, 63].
        assert!((32..=63).contains(&median), "median bucket hi: {median}");
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1, "q=0 clamps to the first sample");
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn journal_ring_evicts_oldest() {
        let j = Journal::new(3);
        for i in 0..5u64 {
            j.push(Event {
                at_micros: i,
                kind: "k".into(),
                detail: i.to_string(),
            });
        }
        let kept = j.snapshot();
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].at_micros, 2);
        assert_eq!(kept[2].at_micros, 4);
        assert_eq!(j.dropped(), 2);
    }

    #[test]
    fn registry_shares_instruments_by_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 2);
        r.histogram("h").record(7);
        assert_eq!(r.histogram("h").count(), 1);

        let clone = r.clone();
        clone.counter("a").inc();
        assert_eq!(r.snapshot().counter("a"), 3, "clones share state");
    }

    #[test]
    fn events_dropped_without_journal_kept_with() {
        let r = Registry::new();
        r.emit(1, "lost", format_args!("no journal installed"));
        assert!(r.snapshot().events.is_empty());

        let journal = r.install_journal(16);
        r.emit(2, "kept", format_args!("journal installed"));
        assert_eq!(journal.snapshot().len(), 1);
        let report = r.snapshot();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].kind, "kept");
    }

    #[test]
    fn merge_preserves_counter_sums() {
        let total = Registry::new();
        total.counter("ops").add(2);
        for n in [3u64, 5] {
            let part = Registry::new();
            part.counter("ops").add(n);
            part.counter("extra").inc();
            total.merge(&part);
        }
        let report = total.snapshot();
        assert_eq!(report.counter("ops"), 10);
        assert_eq!(report.counter("extra"), 2);
    }

    #[test]
    fn merge_preserves_histogram_shape() {
        let total = Registry::new();
        let samples: [&[u64]; 3] = [&[0, 1, 7], &[7, 1 << 40], &[u64::MAX]];
        let reference = Histogram::new();
        for part_samples in samples {
            let part = Registry::new();
            for &v in part_samples {
                part.histogram("h").record(v);
                reference.record(v);
            }
            total.merge(&part);
        }
        let merged = total.snapshot().histogram("h").unwrap().clone();
        let expect = reference.snapshot();
        assert_eq!(merged.buckets, expect.buckets, "bucket counts must add");
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.min, expect.min);
        assert_eq!(merged.max, expect.max);
        // An empty part changes nothing (min sentinel survives).
        total.absorb(&Registry::new().snapshot());
        assert_eq!(total.snapshot().histogram("h").unwrap(), &expect);
    }

    #[test]
    fn merge_respects_journal_capacity() {
        let total = Registry::new();
        total.install_journal(3);
        for i in 0..2u64 {
            let part = Registry::new();
            part.install_journal(8);
            for j in 0..4u64 {
                part.emit(i * 10 + j, "trial.event", format_args!("t{i}e{j}"));
            }
            total.merge(&part);
        }
        let events = total.snapshot().events;
        assert_eq!(events.len(), 3, "merged journal stays within its cap");
        assert_eq!(events[0].detail, "t1e1", "oldest events evicted first");
        assert_eq!(events[2].detail, "t1e3");
    }

    #[test]
    fn report_json_shape() {
        let r = Registry::new();
        r.counter("ops").add(3);
        r.histogram("lat_us").record(3);
        r.histogram("lat_us").record(4);
        r.install_journal(4);
        r.emit(12, "k\"ind", format_args!("line1\nline2"));
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{\"ops\":3}"));
        assert!(json.contains(
            "\"lat_us\":{\"count\":2,\"sum\":7,\"min\":3,\"max\":4,\"buckets\":\
             [{\"lo\":2,\"hi\":3,\"count\":1},{\"lo\":4,\"hi\":7,\"count\":1}]}"
        ));
        assert!(json.contains("\"kind\":\"k\\\"ind\""));
        assert!(json.contains("\"detail\":\"line1\\nline2\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn report_lookup_helpers() {
        let r = Registry::new();
        r.counter("x").inc();
        let report = r.snapshot();
        assert_eq!(report.counter("x"), 1);
        assert_eq!(report.counter("missing"), 0);
        assert!(report.histogram("missing").is_none());
    }
}
