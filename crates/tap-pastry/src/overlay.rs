//! The overlay: membership, join/leave/failure, and prefix routing.
//!
//! The whole network lives in one process, exactly as the paper ran
//! FreePastry ("the peer nodes were configured to run in a single Java
//! VM"). Every node still keeps *its own* routing table and leaf set, and
//! routing consults only per-node state hop by hop — the overlay struct
//! merely plays the role of the wire plus the converged maintenance
//! protocols:
//!
//! * leaf sets are repaired eagerly on join/leave (Pastry's leaf-set
//!   protocol is eager and its converged result is exact, so we install
//!   that result directly);
//! * routing-table entries pointing at dead nodes are discovered and
//!   evicted lazily during routing, with Pastry's fallback rule (§2.1 of
//!   the Pastry paper: forward to any known node at least as good in
//!   prefix and strictly closer numerically).
//!
//! Node state lives in a member arena indexed by [`Slot`]: every id that
//! has ever joined has one entry, and routing-table cells, leaf-set sides
//! and the ring name nodes by their slot (four bytes, not twenty), so a
//! forwarding step reaches the next hop's liveness and handle with one
//! index.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;
use tap_id::IdHashMap;

use rand::Rng;
use tap_id::{DistanceKey, Id, Ring};
use tap_metrics::{Counter, Histogram, Registry};

use crate::config::PastryConfig;
use crate::leafset::{Leaf, LeafSet, HALF};
use crate::routing_table::{RoutingTable, Slot};

/// Per-node overlay state, in one allocation beside the table's grid: the
/// leaf set's sides of slots are inline. `repr(C)` keeps what a forwarding
/// step reads (the table's grid pointer, the leaf set's edges) ahead of the
/// sides. The node's id is its arena entry's (and its table's owner).
#[derive(Debug, Clone)]
#[repr(C)]
struct NodeHandle {
    table: RoutingTable,
    leafset: LeafSet,
}

/// One entry of the member arena: an id that has joined at least once.
#[derive(Clone)]
struct Member {
    id: Id,
    /// The node's index in `Overlay::order` while it is live.
    pos: u32,
    /// The node's state while it is live; `None` once it has departed.
    handle: Option<Arc<NodeHandle>>,
}

/// A read-only view of one live node's state ([`Overlay::node`]).
#[derive(Clone, Copy)]
pub struct NodeView<'a> {
    /// The node's identifier.
    pub id: Id,
    /// Its prefix routing table.
    pub table: TableView<'a>,
    /// Its leaf set.
    pub leafset: LeafSetView<'a>,
}

/// A node's routing table with each cell read as the id it names.
#[derive(Clone, Copy)]
pub struct TableView<'a> {
    table: &'a RoutingTable,
    overlay: &'a Overlay,
}

impl<'a> TableView<'a> {
    /// The entry at `(row, col)`, if the row exists and is populated.
    pub fn entry(self, row: usize, col: usize) -> Option<Id> {
        self.overlay.id_of(self.table.entry(row, col)?)
    }

    /// All populated entries (row-major).
    pub fn entries(self) -> impl Iterator<Item = Id> + 'a {
        (self.table.entries()).filter_map(move |slot| self.overlay.id_of(slot))
    }

    /// Highest allocated row index plus one.
    pub fn depth(self) -> usize {
        self.table.depth()
    }
}

/// A node's leaf set with each member read as the id it names.
#[derive(Clone, Copy)]
pub struct LeafSetView<'a> {
    leafset: &'a LeafSet,
    overlay: &'a Overlay,
}

impl<'a> LeafSetView<'a> {
    /// Clockwise neighbours, nearest first.
    pub fn clockwise(self) -> LeafIds<'a> {
        self.ids(self.leafset.clockwise())
    }

    /// Counter-clockwise neighbours, nearest first.
    pub fn counter_clockwise(self) -> LeafIds<'a> {
        self.ids(self.leafset.counter_clockwise())
    }

    /// All members (both sides), without the owner.
    pub fn members(self) -> impl Iterator<Item = Id> + 'a {
        self.clockwise().chain(self.counter_clockwise())
    }

    fn ids(self, side: &'a [Slot]) -> LeafIds<'a> {
        LeafIds {
            side: side.iter(),
            overlay: self.overlay,
        }
    }
}

/// The ids of one leaf-set side, nearest first ([`LeafSetView`]).
#[derive(Clone)]
pub struct LeafIds<'a> {
    side: std::slice::Iter<'a, Slot>,
    overlay: &'a Overlay,
}

impl Iterator for LeafIds<'_> {
    type Item = Id;

    fn next(&mut self) -> Option<Id> {
        Some(self.overlay.leaf_id(*self.side.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.side.size_hint()
    }
}

impl ExactSizeIterator for LeafIds<'_> {}

/// Why a route could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The starting node is not a live member.
    UnknownSource(Id),
    /// The overlay has no live nodes at all.
    EmptyOverlay,
    /// No candidate made numeric progress toward the key (leaf sets would
    /// have to be corrupted for this to happen; surfaced, never masked).
    Stuck {
        /// Node at which progress stopped.
        at: Id,
        /// Key being routed.
        key: Id,
    },
    /// Hop count exceeded a sanity bound (routing loop).
    Loop,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownSource(id) => write!(f, "unknown source node {id:?}"),
            RouteError::EmptyOverlay => write!(f, "overlay has no live nodes"),
            RouteError::Stuck { at, key } => {
                write!(f, "routing stuck at {at:?} for key {key:?}")
            }
            RouteError::Loop => write!(f, "routing loop detected"),
        }
    }
}

impl std::error::Error for RouteError {}

/// The result of routing a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Every node the message visited, starting with the source and ending
    /// with the root.
    pub path: Vec<Id>,
    /// The key's root: the live node numerically closest to it.
    pub root: Id,
}

impl RouteOutcome {
    /// Number of overlay hops taken (`path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// One forwarding decision: the next hop's id and slot (`None` when the
/// deciding node is the root) and whether it was a pure greedy step.
pub(crate) type Step = Result<(Option<(Id, Slot)>, bool), RouteError>;

/// Cached instrument handles; route() is the simulator's hottest loop.
#[derive(Clone)]
struct OverlayInstruments {
    registry: Registry,
    route_hops: Arc<Histogram>,
    leafset_repairs: Arc<Counter>,
    table_evictions: Arc<Counter>,
    stale_leafset_refs: Arc<Counter>,
    join_route_failed: Arc<Counter>,
}

impl OverlayInstruments {
    fn new(registry: Registry) -> Self {
        OverlayInstruments {
            route_hops: registry.histogram("pastry.route.hops"),
            leafset_repairs: registry.counter("pastry.leafset.repairs"),
            table_evictions: registry.counter("pastry.table.evictions"),
            stale_leafset_refs: registry.counter("pastry.stale_leafset_ref"),
            join_route_failed: registry.counter("pastry.join.route_failed"),
            registry,
        }
    }
}

/// A simulated Pastry overlay.
///
/// Cloning is copy-on-write: node handles are `Arc`-shared with the
/// clone, and a mutation copies only the handles it touches (each with its
/// table's grid). [`Overlay::checkpoint`] / [`Overlay::rollback`] expose
/// the same machinery as an explicit save/restore pair, so a sweep point
/// costs only the nodes it kills or repairs instead of a full deep copy of
/// the network.
#[derive(Clone)]
pub struct Overlay {
    config: PastryConfig,
    /// Every id that has ever joined, indexed by [`Slot`]. A departed id
    /// keeps its entry and loses only its handle.
    members: Vec<Member>,
    /// `Id → Slot` for every entry of `members`. It never forgets an id,
    /// so a table cell that names a departed node comes alive again when
    /// that id rejoins, as a cell holding the id itself would.
    slots: IdHashMap<Slot>,
    /// The live ids in ring order, each with its slot: exactly the members
    /// with a handle.
    ring: Ring<Slot>,
    /// Dense list of the live slots for O(1) *uniform* random-node
    /// sampling (successor-of-a-random-probe sampling would be biased by
    /// ring-gap size, which skews relay selection statistics in the
    /// experiments); each live member records its index here.
    order: Vec<Slot>,
    instruments: OverlayInstruments,
}

/// A saved membership state produced by [`Overlay::checkpoint`]: the
/// member arena (one `Arc` per live handle, pointer-sized, not
/// table-sized), the slot map and the ring indexes. Restoring with
/// [`Overlay::rollback`] re-shares every handle the mutations in between
/// had copied.
#[derive(Clone)]
pub struct OverlayCheckpoint {
    members: Vec<Member>,
    slots: IdHashMap<Slot>,
    ring: Ring<Slot>,
    order: Vec<Slot>,
}

impl OverlayCheckpoint {
    /// Number of nodes captured in the checkpoint.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the checkpoint captured an empty overlay.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Overlay {
    /// An empty overlay recording into its own private metrics registry
    /// (share one across subsystems with [`Overlay::use_metrics`]).
    pub fn new(config: PastryConfig) -> Self {
        config.validate();
        Overlay {
            config,
            members: Vec::new(),
            slots: IdHashMap::default(),
            ring: Ring::new(),
            order: Vec::new(),
            instruments: OverlayInstruments::new(Registry::new()),
        }
    }

    /// Record into `registry` from now on. Clones of the overlay share the
    /// same registry handle.
    pub fn use_metrics(&mut self, registry: Registry) {
        self.instruments = OverlayInstruments::new(registry);
    }

    /// The metrics registry this overlay records into.
    pub fn metrics(&self) -> &Registry {
        &self.instruments.registry
    }

    /// The overlay's configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the overlay has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `id` is a live member.
    pub fn is_live(&self, id: Id) -> bool {
        self.live(id).is_some()
    }

    /// Iterate over all live node ids (ring order).
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.ring.clockwise(Bound::Unbounded)
    }

    /// The live ids in ring order, each with its slot.
    pub(crate) fn ring(&self) -> &Ring<Slot> {
        &self.ring
    }

    /// Borrow a live node's state.
    pub fn node(&self, id: Id) -> Option<NodeView<'_>> {
        let (_, node) = self.live(id)?;
        Some(NodeView {
            id,
            table: TableView {
                table: &node.table,
                overlay: self,
            },
            leafset: LeafSetView {
                leafset: &node.leafset,
                overlay: self,
            },
        })
    }

    /// `id`'s slot, live or departed; `None` if it never joined.
    pub(crate) fn slot(&self, id: Id) -> Option<Slot> {
        self.slots.get(&id).copied()
    }

    /// The handle in `slot`, if that node is live. A slot the arena never
    /// handed out (`Slot::EMPTY`) reads as departed.
    fn handle(&self, slot: Slot) -> Option<&Arc<NodeHandle>> {
        self.members.get(slot.index())?.handle.as_ref()
    }

    /// A live node's slot and state.
    fn live(&self, id: Id) -> Option<(Slot, &NodeHandle)> {
        let slot = self.slot(id)?;
        Some((slot, self.handle(slot)?))
    }

    /// The shared handle in `slot`, if that node is live, to unshare and
    /// write.
    fn handle_mut(&mut self, slot: Slot) -> Option<&mut Arc<NodeHandle>> {
        self.members.get_mut(slot.index())?.handle.as_mut()
    }

    /// A live node's shared handle, to unshare and write.
    #[cfg(test)]
    fn live_mut(&mut self, id: Id) -> Option<&mut Arc<NodeHandle>> {
        self.handle_mut(self.slot(id)?)
    }

    /// The id `slot` names, live or departed.
    fn id_of(&self, slot: Slot) -> Option<Id> {
        self.members.get(slot.index()).map(|m| m.id)
    }

    /// The id a leaf-set member's slot names. A leaf was a ring member
    /// when its set was installed, so its slot indexes the arena.
    fn leaf_id(&self, slot: Slot) -> Id {
        self.members[slot.index()].id
    }

    /// Record (counter + journal) a leaf-set reference to a node that is
    /// no longer live — e.g. one removed earlier in the same repair
    /// batch. The reference is skipped, never followed.
    fn note_stale_leafset_ref(&self, referenced: Id) {
        self.instruments.stale_leafset_refs.inc();
        self.instruments.registry.emit(
            0,
            "pastry.stale_leafset_ref",
            format_args!("skipped repair via dead leafset member {referenced:?}"),
        );
    }

    /// Record (counter + journal) a join whose bootstrap route failed and
    /// which therefore took its routing-table rows from the root alone.
    fn note_join_route_failed(&self, id: Id, why: RouteError) {
        self.instruments.join_route_failed.inc();
        self.instruments.registry.emit(
            0,
            "pastry.join.route_failed",
            format_args!("join of {id:?} took its rows from the root alone: {why}"),
        );
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Save the current membership state. Costs one `Arc` bump per node
    /// plus the arena's ids, the slot map and the ring indexes — no
    /// routing table or leaf set is copied.
    pub fn checkpoint(&self) -> OverlayCheckpoint {
        OverlayCheckpoint {
            members: self.members.clone(),
            slots: self.slots.clone(),
            ring: self.ring.clone(),
            order: self.order.clone(),
        }
    }

    /// Restore a state saved by [`Overlay::checkpoint`], discarding every
    /// membership mutation made since, ids first seen since included.
    /// Handles the mutations had copied become shared with the checkpoint
    /// again; config and metrics wiring are untouched (counters keep their
    /// accumulated values — a rollback undoes the network, not the
    /// measurement).
    pub fn rollback(&mut self, cp: &OverlayCheckpoint) {
        self.members.clone_from(&cp.members);
        self.slots.clone_from(&cp.slots);
        self.ring.clone_from(&cp.ring);
        self.order.clone_from(&cp.order);
    }

    /// A fully-owned copy sharing no node state with `self` — what
    /// `clone()` used to cost before snapshots. Kept as the oracle the
    /// snapshot proptests compare COW clones against.
    pub fn deep_clone(&self) -> Overlay {
        let members = self.members.iter().map(|m| Member {
            id: m.id,
            pos: m.pos,
            handle: m.handle.as_deref().cloned().map(Arc::new),
        });
        Overlay {
            config: self.config,
            members: members.collect(),
            slots: self.slots.clone(),
            ring: self.ring.clone(),
            order: self.order.clone(),
            instruments: self.instruments.clone(),
        }
    }

    /// How many node handles are physically shared with `other`
    /// (diagnostics for the snapshot tests and benches).
    pub fn handles_shared_with(&self, other: &Overlay) -> usize {
        let shared = |m: &&Member| {
            let theirs = other.slot(m.id).and_then(|s| other.handle(s));
            matches!((&m.handle, theirs), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
        };
        self.members.iter().filter(shared).count()
    }

    /// A uniformly random live node (exact uniformity via a dense index).
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Id> {
        if self.order.is_empty() {
            return None;
        }
        let slot = *self.order.get(rng.gen_range(0..self.order.len()))?;
        self.id_of(slot)
    }
    // ------------------------------------------------------------------
    // Oracle views (global knowledge; used for replica placement and for
    // validating that decentralized routing agrees with ground truth).
    // ------------------------------------------------------------------

    /// Up to `n` live ids clockwise from `from` (exclusive), in ring order.
    pub fn successors(&self, from: Id, n: usize) -> Vec<Id> {
        self.ring.clockwise(Bound::Excluded(from)).take(n).collect()
    }

    /// Up to `n` live ids counter-clockwise from `from` (exclusive).
    pub fn predecessors(&self, from: Id, n: usize) -> Vec<Id> {
        (self.ring.counter_clockwise(Bound::Excluded(from)))
            .take(n)
            .collect()
    }

    /// Oracle: the live node numerically closest to `key` (the key's root).
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        let succ = self.ring.clockwise(Bound::Included(key)).next()?;
        if succ == key {
            return Some(succ);
        }
        // `key` is not a member, so on a non-empty ring this walk has a
        // first id (`succ` itself on a ring of one).
        let pred = self.ring.counter_clockwise(Bound::Excluded(key)).next()?;
        Some(match key.cmp_distance(succ, pred) {
            std::cmp::Ordering::Greater => pred,
            _ => succ,
        })
    }

    /// Oracle: the `k` live nodes numerically closest to `key`, nearest
    /// first — PAST's replica set for the key. The first `k` ids of
    /// [`Overlay::closest_iter`]: two bucket searches and one allocation.
    pub fn k_closest(&self, key: Id, k: usize) -> Vec<Id> {
        let take = k.min(self.ring.len());
        let mut out = Vec::with_capacity(take);
        out.extend(self.closest_iter(key).take(take));
        out
    }

    /// Oracle: every live node in nearest-first order from `key`, ordered
    /// by [`Id::cmp_distance`] (ties and all). Lazy: callers that stop
    /// after a few items (a replica set, "closest responsive node") pay
    /// O(taken), and nothing is materialised or sorted.
    ///
    /// Works by merging the clockwise walk (which starts *at* `key`, so a
    /// member key comes out first, at distance zero) with the
    /// counter-clockwise walk (which leaves `key` out): the unvisited ids
    /// always form one contiguous arc whose *farthest* point from `key` is
    /// interior, so the nearest unvisited id is one of the arc's two
    /// endpoints, and comparing the two frontiers picks it. The ids taken so
    /// far are therefore always ring-contiguous — the property replica
    /// repair on a join rests on.
    pub fn closest_iter(&self, key: Id) -> impl Iterator<Item = Id> + '_ {
        // A frontier is measured when first peeked, not once per comparison.
        let measured = key.distance_keys();
        let mut succ = (self.ring.clockwise(Bound::Included(key)))
            .map(measured)
            .peekable();
        let mut pred = (self.ring.counter_clockwise(Bound::Excluded(key)))
            .map(measured)
            .peekable();
        let mut left = self.ring.len();
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            // The clockwise walk covers the whole ring, so while an id is
            // unvisited it has a frontier; the other runs dry only on a ring
            // of `key` alone. On the last id both frontiers are that id.
            let s = succ.peek().copied()?;
            let p = pred.peek().copied().unwrap_or(s);
            if s > p {
                pred.next();
                Some(p.id())
            } else {
                succ.next();
                Some(s.id())
            }
        })
    }

    /// Oracle: [`Overlay::k_closest`] of each of `keys`, appended to `out`
    /// in order — for keys in clockwise order round less than a turn, from
    /// one ring walk (DESIGN.md §6i). The walk takes the `k` live ids
    /// before the first key, every id up to the last key, and `k` more: a
    /// key's `k` closest are ring-contiguous and reach at most `k` ids
    /// either way from it, so they all lie in that stretch, and merging it
    /// outwards from the key, nearest first, is what
    /// [`Overlay::closest_iter`] does on the whole ring. A ring no larger
    /// than the stretch (its ids would repeat) and keys out of clockwise
    /// order take one `closest_iter` a key.
    pub(crate) fn replica_sets(&self, keys: &[Id], k: usize, out: &mut Vec<Id>) {
        let take = k.min(self.ring.len());
        let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
            return;
        };
        let offset = |id: Id| first.clockwise_distance(id);
        let span = offset(last);
        let clockwise = keys.windows(2).all(|w| offset(w[0]) <= offset(w[1]));
        // The stretch is laid out at the end of `out`, the sets after it,
        // and the stretch drained: the walk allocates nothing of its own.
        let base = out.len();
        let arc = if clockwise && take > 0 {
            self.stretch(first, span, take, out)
        } else {
            None
        };
        let Some(arc) = arc else {
            out.truncate(base);
            for &key in keys {
                out.extend(self.closest_iter(key).take(take));
            }
            return;
        };
        // `at` indexes, from `base`, the first id at or after the key: past
        // the `take` ids before the arc and the arc's ids before the key.
        let mut at = take;
        for &key in keys {
            while at < take + arc && offset(out[base + at]) < offset(key) {
                at += 1;
            }
            let measure = key.distance_keys();
            let (mut succ, mut pred) = (base + at, base + at);
            for _ in 0..take {
                let (s, p) = (measure(out[succ]), measure(out[pred - 1]));
                let nearest = if s > p {
                    pred -= 1;
                    p
                } else {
                    succ += 1;
                    s
                };
                out.push(nearest.id());
            }
        }
        out.drain(base..base + 2 * take + arc);
    }

    /// Append to `out`, in clockwise order, the ring stretch that
    /// [`Overlay::replica_sets`] merges: the `take` live ids before
    /// `first`, the arc of ids within `span` clockwise of it, and the
    /// `take` after those. Returns how many ids the arc holds, or `None`
    /// when the stretch would be longer than the ring.
    fn stretch(&self, first: Id, span: Id, take: usize, out: &mut Vec<Id>) -> Option<usize> {
        let base = out.len();
        let room = self.ring.len().checked_sub(2 * take)?;
        out.extend((self.ring.counter_clockwise(Bound::Excluded(first))).take(take));
        out[base..].reverse();
        let mut arc = 0;
        let mut walk = self.ring.clockwise(Bound::Included(first));
        for id in walk.by_ref() {
            if first.clockwise_distance(id) > span {
                out.push(id);
                break;
            }
            if arc == room {
                return None;
            }
            arc += 1;
            out.push(id);
        }
        out.extend(walk.take(take - 1));
        Some(arc)
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Add a node with a fresh random id; returns the id.
    pub fn add_random_node<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Id {
        loop {
            let id = Id::random(rng);
            if self.add_node(id) {
                return id;
            }
        }
    }

    /// Add a node with identifier `id`. Returns `false` (no-op) if the id
    /// is already taken, or if all 2³² − 1 slots are (an arena that large
    /// would hold 128 GiB of entries, so memory runs out first).
    ///
    /// Models the Pastry join: route from a distant bootstrap node toward
    /// `id`; nodes met on the way donate routing-table rows; the root
    /// donates its leaf set; everyone in the new leaf set learns about the
    /// newcomer.
    pub fn add_node(&mut self, id: Id) -> bool {
        let Some(slot) = self.intern(id) else {
            return false;
        };
        let mut table = RoutingTable::new(id, self.config.b);

        // Bootstrap from roughly the antipode so the join path has
        // realistic length and donates a full set of rows.
        let bootstrap = self.ring.clockwise(Bound::Included(id.flip_bit(0))).next();
        if let Some(bootstrap) = bootstrap {
            let path = match self.route(bootstrap, id) {
                Ok(outcome) => outcome.path,
                // Tables worn by churn can strand a route (`Stuck`, `Loop`):
                // the join then learns its rows from the root alone.
                Err(why) => {
                    self.note_join_route_failed(id, why);
                    self.owner_of(id).into_iter().collect()
                }
            };
            let root = path.last().copied();

            // Row i of the i-th node on the path matches the new node on at
            // least i digits (Pastry join, §3 of the Pastry paper).
            for (i, &hop) in path.iter().enumerate() {
                // A route forwards only to live nodes and `owner_of` names
                // a live one, so every hop resolves.
                let donor = self.live(hop);
                debug_assert!(donor.is_some(), "join path through a departed node");
                let Some((hop_slot, donor)) = donor else {
                    continue;
                };
                let id_of = |slot| self.id_of(slot);
                table.absorb_row(&donor.table, i, id_of);
                // Later rows from the root are also valid donations.
                if Some(hop) == root {
                    for r in i..donor.table.depth() {
                        table.absorb_row(&donor.table, r, id_of);
                    }
                }
                table.consider(hop, hop_slot);
            }
        }

        // One ring walk serves the whole event. The nodes that gain the
        // newcomer as a leaf are, by window symmetry, the `HALF` ids on
        // each side of it, and each of their own leaf sets reaches `HALF`
        // further: everything lies within `2·HALF` ids of `id`.
        self.ring.put(id, slot);
        // `order` is no longer than the arena, whose indexes fit a `u32`.
        let pos = self.order.len() as u32;
        self.order.push(slot);
        let mut window = self.window(id);
        let (n, at) = (window.len, window.at);

        // The newcomer's exact leaf set (the converged result of leaf-set
        // exchange with the root). Its leaves come with their slots from
        // the walk; a member on both sides of a small ring is considered
        // twice, and the second time finds its cell taken.
        let mut leafset = LeafSet::new(id);
        let (cw, ccw) = window.sides(at);
        leafset.rebuild(id, cw, ccw);
        for &(m, s) in cw.iter().chain(ccw) {
            table.consider(m, s);
        }
        let (n_cw, n_ccw) = (leafset.clockwise().len(), leafset.counter_clockwise().len());
        // `intern` handed `slot` out of the arena above, and only a
        // rollback shrinks it.
        debug_assert!(slot.index() < self.members.len());
        let member = &mut self.members[slot.index()];
        member.pos = pos;
        member.handle = Some(Arc::new(NodeHandle { table, leafset }));

        // Announce to its members.
        let members = (1..=n_cw)
            .map(|t| (at + t) % n)
            .chain((1..=n_ccw).map(|t| (at + n - t) % n));
        self.refresh_leafsets(&mut window, members, |table| table.consider(id, slot));
        true
    }

    /// `id`'s slot for a join: its own if it joined before, else the next
    /// free one. `None` if `id` is live or no slot is left (`Slot::EMPTY`
    /// is the one `u32` that is not an index).
    fn intern(&mut self, id: Id) -> Option<Slot> {
        if let Some(slot) = self.slot(id) {
            return self.handle(slot).is_none().then_some(slot);
        }
        let next = u32::try_from(self.members.len()).ok();
        let slot = Slot(next.filter(|&n| Slot(n) != Slot::EMPTY)?);
        self.members.push(Member {
            id,
            pos: 0,
            handle: None,
        });
        self.slots.insert(id, slot);
        Some(slot)
    }

    /// Remove a node (graceful leave and fail-stop failure look identical
    /// one repair round later, which is the granularity the paper's
    /// experiments measure at).
    ///
    /// Idempotent: removing an id that is not (or no longer) live returns
    /// `false` and changes nothing, so overlapping churn units may race
    /// to kill the same node without panicking.
    pub fn remove_node(&mut self, id: Id) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        if self.detach(slot).is_none() {
            return false;
        }
        self.ring.take(id);

        // Repair the `HALF` survivors on each side of the gap. Their new
        // leaf sets reach `HALF` further, so one walk of `2·HALF` ids
        // either side serves them all.
        let mut window = self.window(id);
        let (n, at) = (window.len, window.at);
        let take = HALF.min(n);
        let survivors = (0..take)
            .map(|t| (at + t) % n)
            .chain((1..=take).map(|t| (at + n - t) % n));
        self.refresh_leafsets(&mut window, survivors, |table| table.evict(id, slot));
        true
    }

    /// Remove a whole batch of nodes at once (the fail-stop mass-failure
    /// scenario of Fig. 2): every id is detached first, then each
    /// surviving neighbour's leaf set is repaired exactly once against
    /// the post-failure ring — `O(batch + affected)` work instead of one
    /// full repair round per removal. Duplicate and unknown ids are
    /// ignored. Returns how many nodes were actually removed.
    ///
    /// Consumes no randomness and repairs survivors in id order, so it is
    /// safe inside deterministic trial workers.
    pub fn remove_nodes(&mut self, ids: &[Id]) -> usize {
        // Phase 1: detach everything, keeping each departed node's handle
        // — its leaf set names the survivors that must repair.
        let mut departed: Vec<(Slot, Arc<NodeHandle>)> = Vec::new();
        for &id in ids {
            let Some(slot) = self.slot(id) else {
                continue;
            };
            if let Some(handle) = self.detach(slot) {
                self.ring.take(id);
                departed.push((slot, handle));
            }
        }
        if departed.is_empty() {
            return 0;
        }

        // Phase 2: collect repair candidates from the departed nodes' own
        // leaf sets (window symmetry: any survivor whose leaf set held a
        // dead node appears in that dead node's leaf set). A member that
        // was itself removed earlier in the same batch is a stale
        // reference — skip and journal it, exactly the case the old
        // one-at-a-time repair path turned into a panic.
        let mut candidates: BTreeSet<Leaf> = BTreeSet::new();
        for (_, handle) in &departed {
            for slot in handle.leafset.members() {
                let m = self.leaf_id(slot);
                if self.handle(slot).is_some() {
                    candidates.insert((m, slot));
                } else {
                    self.note_stale_leafset_ref(m);
                }
            }
        }

        // Phase 3: every candidate held a departed leaf, so each is written.
        let mut removed: Vec<Slot> = departed.iter().map(|&(slot, _)| slot).collect();
        removed.sort_unstable();
        let (mut cw, mut ccw) = (Vec::with_capacity(HALF), Vec::with_capacity(HALF));
        for (a, slot) in candidates {
            let from = Bound::Excluded(a);
            cw.clear();
            cw.extend(self.ring.clockwise_entries(from).take(HALF).map(leaf));
            ccw.clear();
            ccw.extend((self.ring.counter_clockwise_entries(from).take(HALF)).map(leaf));
            let Some(node) = self.handle_mut(slot) else {
                continue;
            };
            let node = Arc::make_mut(node);
            node.leafset.rebuild(a, &cw, &ccw);
            node.table
                .evict_where(|x| removed.binary_search(&x).is_ok());
            self.instruments.leafset_repairs.inc();
        }
        departed.len()
    }

    /// Take the handle of the live node in `slot` and drop the slot from
    /// the dense sampling index by swap-remove. `None` (and no change) if
    /// that node is not live.
    fn detach(&mut self, slot: Slot) -> Option<Arc<NodeHandle>> {
        let member = self.members.get_mut(slot.index())?;
        let handle = member.handle.take()?;
        let pos = member.pos;
        if let Some(last) = self.order.pop().filter(|&last| last != slot) {
            // `order` lists each live slot once, at its member's `pos`,
            // so the gap and the moved member are both in range.
            debug_assert!((pos as usize) < self.order.len());
            debug_assert!(last.index() < self.members.len());
            self.order[pos as usize] = last;
            self.members[last.index()].pos = pos;
        }
        Some(handle)
    }

    /// Install the exact leaf set of `window.entries[i]` for each `i` in
    /// `members` (the converged result of Pastry's leaf-set exchange) and
    /// apply `table` to its routing table. Each member gained or lost the
    /// event's id as a leaf, or sees a ring too small to fill one: all are
    /// written, so no read-only probe comes first.
    fn refresh_leafsets<R>(
        &mut self,
        window: &mut Window,
        members: impl Iterator<Item = usize>,
        table: impl Fn(&mut RoutingTable) -> R,
    ) {
        for i in members {
            let (owner, slot) = window.entries[i];
            // `ring` lists exactly the live members.
            let Some(node) = self.handle_mut(slot) else {
                continue;
            };
            let node = Arc::make_mut(node);
            let (cw, ccw) = window.sides(i);
            node.leafset.rebuild(owner, cw, ccw);
            table(&mut node.table);
            self.instruments.leafset_repairs.inc();
        }
    }
    /// The ring stretch a membership event at `around` can touch, in
    /// clockwise order, each id with its slot: the `2·HALF` live ids on
    /// each side of `around`, and `around` itself when live — or the whole
    /// ring, when it is no larger than that.
    fn window(&self, around: Id) -> Window {
        let reach = 2 * HALF;
        let from = Bound::Excluded(around);
        let mut window = Window {
            entries: [NO_LEAF; WINDOW],
            len: 0,
            at: 0,
            cw: [NO_LEAF; HALF],
            ccw: [NO_LEAF; HALF],
        };
        let whole = self.ring.len() <= WINDOW;
        if !whole {
            // A ring larger than the window has `reach` ids before `around`.
            let before = self.ring.counter_clockwise_entries(from);
            for (entry, e) in window.entries[..reach].iter_mut().rev().zip(before) {
                *entry = leaf(e);
            }
            (window.len, window.at) = (reach, reach);
        }
        if let Some(&slot) = self.ring.get(around) {
            window.push((around, slot));
        }
        let rest = if whole { usize::MAX } else { reach };
        for e in self.ring.clockwise_entries(from).take(rest) {
            window.push(leaf(e));
        }
        window
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Route `key` from node `from` using only per-node state, repairing
    /// dead routing-table entries as they are discovered.
    ///
    /// Returns the full path (source first, root last).
    pub fn route(&mut self, from: Id, key: Id) -> Result<RouteOutcome, RouteError> {
        if self.ring.is_empty() {
            return Err(RouteError::EmptyOverlay);
        }
        let Some((mut at, _)) = self.live(from) else {
            return Err(RouteError::UnknownSource(from));
        };
        let mut current = from;
        // One allocation for any path of up to seven hops, where growing
        // from `vec![from]` reallocates at the second node and the fifth.
        let mut path = Vec::with_capacity(8);
        path.push(from);
        // Prefix hops strictly lengthen the shared prefix and ring-mode
        // hops strictly shrink ring distance, so the true bound is
        // digits + N; this is a defensive cap well above realistic paths.
        let max_hops = self.config.digits() + self.ring.len() + 16;
        // Once a hop is taken on pure ring progress (a greedy step that may
        // shorten the shared prefix), prefix hops are disabled for the rest
        // of the route: mixing the two metrics can oscillate (prefix hops
        // may regress ring distance, leaf-set steps may regress the shared
        // prefix), but each metric alone is monotone. A route also flips to
        // ring mode the moment it would revisit a node, which makes loops
        // impossible by construction.
        // Revisit detection scans `path` directly: paths are O(log N)
        // short, so a linear scan beats allocating a hash set per route.
        let mut ring_mode = false;

        loop {
            if path.len() > max_hops {
                return Err(RouteError::Loop);
            }
            let (next, went_greedy) = self.forward_from(current, at, key, ring_mode)?;
            match next {
                None => {
                    self.instruments.route_hops.record(path.len() as u64 - 1);
                    return Ok(RouteOutcome {
                        path,
                        root: current,
                    });
                }
                Some((n, slot)) => {
                    if !ring_mode && path.contains(&n) {
                        // Prefix routing is about to cycle; re-decide this
                        // hop on pure ring progress.
                        ring_mode = true;
                        continue;
                    }
                    ring_mode |= went_greedy;
                    debug_assert!(self.ring.contains(n), "forwarded to dead node");
                    path.push(n);
                    (current, at) = (n, slot);
                }
            }
        }
    }

    /// One forwarding decision at `current`, whose slot is `at`, for `key`.
    /// `Ok((None, _))` means `current` is the root; the boolean reports
    /// whether the step was pure greedy (no prefix guarantee). Evicts dead
    /// table entries it trips over. A `current` that is not live — a leaf
    /// set named a departed node — is [`RouteError::Stuck`] at that node:
    /// the same corrupted-leaf-set condition, one hop later. Exposed
    /// crate-wide so [`crate::secure`] can walk routes while interposing
    /// per-node adversarial behaviour.
    pub(crate) fn forward_from(&mut self, current: Id, at: Slot, key: Id, ring_mode: bool) -> Step {
        let stuck = RouteError::Stuck { at: current, key };
        let mut node = self.handle(at).ok_or(stuck)?;

        // Phase 1: leaf set covers the key → exact final step(s). The
        // bracket reads at most three leaves' ids out of the arena and
        // returns the winner with its slot.
        if node.leafset.covers(key) {
            let (best, slot) = (node.leafset).closest_to((current, at), key, |s| self.leaf_id(s));
            if best == current {
                return Ok((None, false));
            }
            // The step after this one finds the leaf departed only if the
            // leaf set is corrupt.
            debug_assert!(
                self.handle(slot).is_some(),
                "leaf sets are eagerly maintained"
            );
            return Ok((Some((best, slot)), false));
        }

        // Phase 2: routing table, canonical cell (skipped in ring mode).
        // The cell's slot indexes the next hop's member entry, which says
        // whether it is live and, in the next step, where its handle is.
        if !ring_mode {
            if let Some(next) = node.table.next_hop(key) {
                if let Some(m) = self.members.get(next.index()) {
                    if m.handle.is_some() {
                        return Ok((Some((m.id, next)), false));
                    }
                    // Stale entry: lazy repair.
                    let stale = [(m.id, next)];
                    self.evict_stale(at, &stale);
                    node = self.handle(at).ok_or(stuck)?;
                }
            }
        }

        // Phase 3: rare-case fallback over table ∪ leaf set.
        let (step, stale) = self.rare_case(node, current, key, ring_mode);
        self.evict_stale(at, &stale);
        step
    }

    /// Phase 3 of [`Overlay::forward_from`] at `node`, and the dead entries
    /// it met (id and slot), which the caller evicts. First apply Pastry's
    /// rule (live, shares at least as long a prefix, strictly closer); if
    /// no such node is known — which can happen with sparsely populated
    /// tables — fall back to pure greedy progress by ring distance. Greedy
    /// is guaranteed to progress whenever the leaf set does not cover the
    /// key: the leaf-set edge on the key's side is strictly closer, so
    /// routing still terminates at the root.
    fn rare_case(
        &self,
        node: &NodeHandle,
        current: Id,
        key: Id,
        ring_mode: bool,
    ) -> (Step, Vec<(Id, Slot)>) {
        let own_prefix = current.shared_prefix_digits(key, self.config.b);
        // Candidates and incumbents are distance keys in limbs: every id is
        // measured once, and only one that would beat `best_pastry` is
        // asked for its prefix.
        let measure = key.distance_keys();
        let here = measure(current);
        let mut best_pastry: Option<(DistanceKey, Slot)> = None;
        let mut best_greedy: Option<(DistanceKey, Slot)> = None;
        let mut stale = Vec::new();
        // Table cells and leaves resolve through the arena, each candidate
        // with its liveness.
        let slots = node.table.entries().chain(node.leafset.members());
        let candidates = slots.filter_map(|slot| {
            let m = self.members.get(slot.index())?;
            Some((m.id, slot, m.handle.is_some()))
        });
        for (c, slot, live) in candidates {
            if !live {
                stale.push((c, slot));
                continue;
            }
            let cand = measure(c);
            if cand >= here {
                continue;
            }
            if best_greedy.is_none_or(|(b, _)| cand < b) {
                best_greedy = Some((cand, slot));
            }
            if best_pastry.is_none_or(|(b, _)| cand < b)
                && c.shared_prefix_digits(key, self.config.b) >= own_prefix
            {
                best_pastry = Some((cand, slot));
            }
        }
        let hop = |(b, slot): (DistanceKey, Slot)| Some((b.id(), slot));
        let step = match (best_pastry, best_greedy) {
            (Some(b), _) if !ring_mode => Ok((hop(b), false)),
            (_, Some(b)) => Ok((hop(b), true)),
            // Not covered by the leaf set yet nobody is closer: with exact
            // leaf sets this means current *is* the root of a sparse ring
            // (fewer nodes than a leaf-set side). Confirm against local
            // knowledge before declaring success.
            (_, None) if node.leafset.len() < 2 * HALF => Ok((None, false)),
            (_, None) => Err(RouteError::Stuck { at: current, key }),
        };
        (step, stale)
    }

    /// Lazy repair: drop the `stale` entries (id and slot) the node in
    /// `at` tripped over from its routing table, counting each. With
    /// nothing stale, `at` stays shared with any snapshot.
    fn evict_stale(&mut self, at: Slot, stale: &[(Id, Slot)]) {
        if stale.is_empty() {
            return;
        }
        let Some(node) = self
            .members
            .get_mut(at.index())
            .and_then(|m| m.handle.as_mut())
        else {
            return;
        };
        let node = Arc::make_mut(node);
        for &(id, slot) in stale {
            node.table.evict(id, slot);
            self.instruments.table_evictions.inc();
        }
    }

    // ------------------------------------------------------------------
    // Diagnostics / test support
    // ------------------------------------------------------------------

    /// The first node, in ring order, whose leaf set differs from the one
    /// the ring gives it; `None` when every leaf set is exact. Diagnostic;
    /// O(N·L·log N).
    pub fn leafset_drift(&self) -> Option<Id> {
        self.ids().find(|&id| {
            let want_cw = self.successors(id, HALF);
            let mut want_ccw = self.predecessors(id, HALF);
            // Small rings: sides overlap; `rebuild` keeps shared nodes on
            // the clockwise side only.
            want_ccw.retain(|x| !want_cw.contains(x));
            self.node(id).is_none_or(|node| {
                !node.leafset.clockwise().eq(want_cw)
                    || !node.leafset.counter_clockwise().eq(want_ccw)
            })
        })
    }

    /// Assert routing-table structural invariants for every node.
    pub fn assert_tables_structurally_valid(&self) {
        for node in self.members.iter().filter_map(|m| m.handle.as_deref()) {
            node.table.assert_invariants(|slot| self.id_of(slot));
        }
    }
}

/// A ring entry as a leaf-set side is installed from.
fn leaf((id, &slot): (Id, &Slot)) -> Leaf {
    (id, slot)
}

/// The most ids an [`Overlay::window`] holds: `2·HALF` on each side of
/// the event's id, and the id.
const WINDOW: usize = 4 * HALF + 1;

/// What an unused window or side entry holds.
const NO_LEAF: Leaf = (Id::ZERO, Slot::EMPTY);

/// The ring stretch of [`Overlay::window`] (ids with their slots), and two
/// leaf-side buffers that each neighbour's sides are read into in turn, all
/// inline: a join or leave allocates nothing for its neighbours.
struct Window {
    /// The stretch is `entries[..len]`.
    entries: [Leaf; WINDOW],
    len: usize,
    /// Where the event's id sits: its own index when live, its clockwise neighbour's when not.
    at: usize,
    cw: [Leaf; HALF],
    ccw: [Leaf; HALF],
}

impl Window {
    fn push(&mut self, entry: Leaf) {
        self.entries[self.len] = entry;
        self.len += 1;
    }

    /// The leaf-set sides of `entries[i]`: the `HALF` members after it and
    /// the `HALF` before it, nearest first. Both walks continue round the
    /// end of the stretch — exact when it is the whole ring, and never
    /// reached when it is not, because the members asked about sit `HALF`
    /// or more from either end.
    fn sides(&mut self, i: usize) -> (&[Leaf], &[Leaf]) {
        let stretch = &self.entries[..self.len];
        let (before, after) = (&stretch[..i], &stretch[i + 1..]);
        let n_cw = fill(&mut self.cw, after.iter().chain(before));
        let n_ccw = fill(&mut self.ccw, before.iter().rev().chain(after.iter().rev()));
        (&self.cw[..n_cw], &self.ccw[..n_ccw])
    }
}

/// Copy `walk` into `side` as far as either reaches; how many were copied.
fn fill<'a>(side: &mut [Leaf], walk: impl Iterator<Item = &'a Leaf>) -> usize {
    let mut n = 0;
    for (entry, &e) in side.iter_mut().zip(walk) {
        *entry = e;
        n += 1;
    }
    n
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: usize, seed: u64) -> (Overlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    #[test]
    fn singleton_overlay_routes_to_itself() {
        let (mut ov, mut rng) = build(1, 1);
        let only = ov.ids().next().unwrap();
        let key = Id::random(&mut rng);
        let out = ov.route(only, key).unwrap();
        assert_eq!(out.root, only);
        assert_eq!(out.hops(), 0);
    }

    #[test]
    fn route_reaches_oracle_owner() {
        let (mut ov, mut rng) = build(300, 2);
        for _ in 0..100 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let want = ov.owner_of(key).unwrap();
            let got = ov.route(src, key).unwrap();
            assert_eq!(got.root, want, "route disagrees with oracle");
            assert_eq!(*got.path.first().unwrap(), src);
            assert_eq!(*got.path.last().unwrap(), want);
        }
    }

    #[test]
    fn route_rarely_revisits_nodes() {
        // A route may re-enter at most one pre-ring-mode node when it flips
        // to monotone ring progress; beyond that, revisits are a loop bug.
        let (mut ov, mut rng) = build(200, 3);
        for _ in 0..50 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let out = ov.route(src, key).unwrap();
            let distinct: std::collections::HashSet<_> = out.path.iter().collect();
            assert!(
                out.path.len() <= distinct.len() + 1,
                "more than one revisit in {:?}",
                out.path
            );
            assert!(!out.path.is_empty());
        }
    }

    #[test]
    fn hop_counts_scale_logarithmically() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..1000 {
            ov.add_random_node(&mut rng);
        }
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            total += ov.route(src, key).unwrap().hops();
        }
        let mean = total as f64 / trials as f64;
        // log_16(1000) ≈ 2.5; allow generous slack but catch linear blowup.
        assert!(
            mean < 6.0,
            "mean hops {mean} too high for 1000 nodes (expect ~log16 N)"
        );
        assert!(mean > 1.0, "mean hops {mean} implausibly low");
    }

    #[test]
    fn leafsets_exact_after_joins() {
        let (ov, _) = build(150, 5);
        assert_eq!(ov.leafset_drift(), None);
        ov.assert_tables_structurally_valid();
    }

    #[test]
    fn drift_names_the_first_drifted_node_in_ring_order() {
        let (mut ov, _) = build(40, 5);
        let ids: Vec<Id> = ov.ids().collect();
        for (at, cw_side) in [(30, true), (7, false)] {
            let id = ids[at];
            let leaves = ov.node(id).unwrap().leafset;
            let entries =
                |side: LeafIds| -> Vec<Leaf> { side.map(|m| (m, ov.slot(m).unwrap())).collect() };
            let (cw, ccw) = (
                entries(leaves.clockwise()),
                entries(leaves.counter_clockwise()),
            );
            let (cw, ccw) = if cw_side {
                (&cw[..HALF - 1], &ccw[..])
            } else {
                (&cw[..], &ccw[1..])
            };
            let node = Arc::make_mut(ov.live_mut(id).unwrap());
            node.leafset.rebuild(id, cw, ccw);
            assert_eq!(ov.leafset_drift(), Some(id));
        }
    }

    #[test]
    fn leafsets_exact_after_removals() {
        let (mut ov, mut rng) = build(150, 6);
        let ids: Vec<Id> = ov.ids().collect();
        for id in ids.iter().take(75) {
            assert!(ov.remove_node(*id));
        }
        assert_eq!(ov.leafset_drift(), None);
        // Routing still agrees with the oracle.
        for _ in 0..50 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn interleaved_churn_preserves_correctness() {
        let (mut ov, mut rng) = build(100, 7);
        for round in 0..20 {
            // Remove a random node, add a fresh one.
            let victim = ov.random_node(&mut rng).unwrap();
            ov.remove_node(victim);
            ov.add_random_node(&mut rng);
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(
                ov.route(src, key).unwrap().root,
                ov.owner_of(key).unwrap(),
                "round {round}"
            );
        }
        assert_eq!(ov.leafset_drift(), None);
    }

    #[test]
    fn mass_failure_routing_survives() {
        // Kill 30% of nodes simultaneously (the Fig. 2 scenario), then
        // verify routing still reaches the post-failure oracle owner.
        let (mut ov, mut rng) = build(400, 8);
        let ids: Vec<Id> = ov.ids().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 10 < 3 {
                ov.remove_node(*id);
            }
        }
        for _ in 0..100 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn k_closest_matches_brute_force() {
        let (ov, mut rng) = build(120, 9);
        let all: Vec<Id> = ov.ids().collect();
        for _ in 0..40 {
            let key = Id::random(&mut rng);
            for k in [1, 3, 5] {
                let got = ov.k_closest(key, k);
                let mut brute = all.clone();
                brute.sort_by(|a, b| key.cmp_distance(*a, *b));
                brute.truncate(k);
                assert_eq!(got, brute, "k={k}");
            }
        }
    }

    #[test]
    fn k_closest_caps_at_population() {
        let (ov, mut rng) = build(2, 10);
        let key = Id::random(&mut rng);
        assert_eq!(ov.k_closest(key, 5).len(), 2);
    }

    #[test]
    fn closest_iter_matches_k_closest_exactly() {
        for (n, seed) in [(1usize, 20u64), (2, 21), (3, 22), (57, 23), (200, 24)] {
            let (ov, mut rng) = build(n, seed);
            let mut keys: Vec<Id> = (0..16).map(|_| Id::random(&mut rng)).collect();
            // Also probe with keys that ARE ring members (emit-self path).
            keys.extend(ov.ids().take(4));
            for key in keys {
                let lazy: Vec<Id> = ov.closest_iter(key).collect();
                let full = ov.k_closest(key, n);
                assert_eq!(lazy, full, "n={n} seed={seed}");
                // The iterator is fused at the population size.
                assert_eq!(ov.closest_iter(key).count(), n);
                // Prefixes agree too (lazy use never over- or under-takes).
                for k in [1usize, 2, 7] {
                    let prefix: Vec<Id> = ov.closest_iter(key).take(k).collect();
                    assert_eq!(prefix, ov.k_closest(key, k), "k={k}");
                }
            }
        }
    }

    #[test]
    fn owner_of_exact_key_is_that_node() {
        let (ov, _) = build(50, 11);
        for id in ov.ids().collect::<Vec<_>>() {
            assert_eq!(ov.owner_of(id), Some(id));
        }
    }

    #[test]
    fn duplicate_join_rejected() {
        let (mut ov, _) = build(10, 12);
        let id = ov.ids().next().unwrap();
        assert!(!ov.add_node(id));
        assert_eq!(ov.len(), 10);
        assert_eq!(ov.members.len(), 10, "a refused join takes no slot");
    }

    #[test]
    fn a_departed_id_keeps_its_slot_and_rejoins_into_it() {
        let (mut ov, _) = build(200, 27);
        let naming = |ov: &Overlay, slot: Slot| {
            let named = |m: &Member| {
                let node = m.handle.as_deref();
                node.is_some_and(|n| n.table.entries().any(|s| s == slot))
            };
            ov.members.iter().filter(|m| named(m)).count()
        };
        // The node most tables name: more of them than its leaf set.
        let victim = (ov.ids().max_by_key(|&id| naming(&ov, ov.slot(id).unwrap()))).unwrap();
        let slot = ov.slot(victim).unwrap();
        let naming = |ov: &Overlay| naming(ov, slot);
        let before = naming(&ov);
        assert!(before > 2 * HALF, "{before}");
        assert!(ov.remove_node(victim));
        assert!(!ov.is_live(victim) && ov.node(victim).is_none());
        assert_eq!(ov.slot(victim), Some(slot));
        assert!(ov.handle(slot).is_none());
        assert!(naming(&ov) > 0, "leaves evict only the neighbours' cells");
        assert!(ov.add_node(victim));
        assert_eq!((ov.slot(victim), ov.members.len()), (Some(slot), 200));
        assert!(naming(&ov) >= before, "the stale cells are live again");
        ov.assert_tables_structurally_valid();
        assert_eq!(ov.leafset_drift(), None);
        // Every live member sits in the sampling index at its `pos`.
        for (i, &s) in ov.order.iter().enumerate() {
            assert_eq!(ov.members[s.index()].pos as usize, i);
        }
    }

    #[test]
    fn rollback_forgets_the_slots_handed_out_since_the_checkpoint() {
        let (mut ov, mut rng) = build(60, 28);
        let cp = ov.checkpoint();
        let fresh: Vec<Id> = (0..5).map(|_| ov.add_random_node(&mut rng)).collect();
        let gone = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(gone));
        assert_eq!(ov.members.len(), 65);
        ov.rollback(&cp);
        assert_eq!(ov.members.len(), 60);
        assert!(fresh.iter().all(|&id| ov.slot(id).is_none()));
        assert!(ov.is_live(gone) || fresh.contains(&gone));
        // A forgotten id joins again as a stranger, into the next slot.
        assert!(ov.add_node(fresh[0]));
        assert_eq!(ov.slot(fresh[0]), Some(Slot(60)));
        ov.assert_tables_structurally_valid();
        assert_eq!(ov.leafset_drift(), None);
    }

    #[test]
    fn a_node_view_reads_cells_as_the_ids_they_name() {
        let (ov, _) = build(300, 30);
        for id in ov.ids() {
            let view = ov.node(id).unwrap();
            let (_, node) = ov.live(id).unwrap();
            assert_eq!(view.id, id);
            let cells = node.table.entries().map(|s| ov.members[s.index()].id);
            assert!(view.table.entries().eq(cells));
            for r in 0..view.table.depth() {
                for c in 0..16 {
                    let slot = node.table.entry(r, c);
                    assert_eq!(view.table.entry(r, c), slot.and_then(|s| ov.id_of(s)));
                }
            }
        }
    }

    #[test]
    fn join_survives_a_stranded_bootstrap_route() {
        // Wear the bootstrap node out the way sustained churn does: an
        // empty routing table and a full leaf set of dead ids (given arena
        // slots, as departed ids keep theirs) that does not cover the key.
        // Its route is `Stuck`; the join must fall back to the oracle root
        // instead of panicking.
        let (mut ov, mut rng) = build(80, 25);
        let id = Id::random(&mut rng);
        let bootstrap = (ov.ring.clockwise(Bound::Included(id.flip_bit(0))))
            .next()
            .unwrap();
        let mut ghosts = |step: fn(Id, Id) -> Id| -> Vec<Leaf> {
            let ghost = |d| step(bootstrap, Id::from_u64(d));
            (1..=HALF as u64)
                .map(|d| (ghost(d), ov.intern(ghost(d)).unwrap()))
                .collect()
        };
        let (cw, ccw) = (ghosts(Id::wrapping_add), ghosts(Id::wrapping_sub));
        let b = ov.config.b;
        let worn = Arc::make_mut(ov.live_mut(bootstrap).unwrap());
        worn.table = RoutingTable::new(bootstrap, b);
        worn.leafset.rebuild(bootstrap, &cw, &ccw);
        assert!(matches!(
            ov.clone().route(bootstrap, id),
            Err(RouteError::Stuck { .. })
        ));

        let root = ov.owner_of(id).unwrap();
        let failed = ov.metrics().counter("pastry.join.route_failed");
        let journal = ov.metrics().install_journal(8);
        assert!(ov.add_node(id));
        assert_eq!(failed.get(), 1);
        assert!(journal
            .snapshot()
            .iter()
            .any(|e| e.kind == "pastry.join.route_failed"));

        // The newcomer is a full member: exact leaf set, rows from the
        // root, and routes that agree with the oracle.
        let joined = ov.node(id).unwrap();
        assert!(joined.leafset.clockwise().eq(ov.successors(id, HALF)));
        assert!((joined.leafset.counter_clockwise()).eq(ov.predecessors(id, HALF)));
        assert!(joined.table.entries().any(|e| e == root));
        ov.assert_tables_structurally_valid();
        for _ in 0..20 {
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(id, key).unwrap().root, ov.owner_of(key).unwrap());
        }
        assert!(
            ov.clone().add_random_node(&mut rng) != id,
            "healthy joins still work"
        );
    }

    #[test]
    fn oracle_views_of_an_empty_ring() {
        let ov = Overlay::new(PastryConfig::paper_defaults());
        let key = Id::from_u64(7);
        assert_eq!(ov.owner_of(key), None);
        assert_eq!(ov.ring.clockwise(Bound::Included(key)).next(), None);
        assert!(ov.k_closest(key, 3).is_empty());
        assert_eq!(ov.closest_iter(key).count(), 0);
        assert!(ov.successors(key, 3).is_empty() && ov.predecessors(key, 3).is_empty());
    }

    #[test]
    fn double_remove_is_idempotent() {
        // Overlapping churn units may race to kill the same node; the
        // second kill must be a clean no-op, not a panic.
        let (mut ov, mut rng) = build(60, 17);
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(!ov.remove_node(victim), "second kill is a no-op");
        assert!(!ov.remove_node(victim), "and so is the third");
        assert_eq!(ov.len(), 59);
        assert_eq!(ov.leafset_drift(), None);
        // The batch form tolerates duplicates and already-dead ids too.
        let v2 = ov.random_node(&mut rng).unwrap();
        assert_eq!(ov.remove_nodes(&[v2, v2, victim]), 1);
        assert_eq!(ov.len(), 58);
        assert_eq!(ov.leafset_drift(), None);
        // Sampling still works over the compacted dense index.
        for _ in 0..20 {
            let s = ov.random_node(&mut rng).unwrap();
            assert!(ov.is_live(s));
        }
    }

    #[test]
    fn batch_removal_journals_stale_leafset_refs() {
        // Kill a contiguous arc of the ring in one batch: each departed
        // node's leaf set references neighbours removed in the same
        // batch, which the repair walk must skip-and-journal rather than
        // panic on.
        let (mut ov, mut rng) = build(120, 18);
        let start = ov.ids().next().unwrap();
        let mut batch = vec![start];
        batch.extend(ov.successors(start, 5));
        let stale = ov.metrics().counter("pastry.stale_leafset_ref");
        assert_eq!(stale.get(), 0);
        assert_eq!(ov.remove_nodes(&batch), 6);
        assert!(
            stale.get() > 0,
            "adjacent kills must hit (and journal) stale leafset refs"
        );
        assert_eq!(ov.len(), 114);
        assert_eq!(ov.leafset_drift(), None);
        for _ in 0..30 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn batch_removal_matches_sequential_removal() {
        // The batch API must converge to the same membership state as
        // one-at-a-time removal — only the repair work differs.
        let (mut a, mut rng) = build(200, 21);
        let mut b = a.deep_clone();
        let victims: Vec<Id> = (0..60)
            .map(|_| a.random_node(&mut rng).unwrap())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &v in &victims {
            a.remove_node(v);
        }
        assert_eq!(b.remove_nodes(&victims), victims.len());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.leafset_drift(), None);
        assert_eq!(b.leafset_drift(), None);
        let mut rng2 = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let src = a.random_node(&mut rng2).unwrap();
            let key = Id::random(&mut rng2);
            assert!(b.is_live(src), "same membership");
            assert_eq!(
                a.route(src, key).unwrap().root,
                b.route(src, key).unwrap().root
            );
        }
    }

    #[test]
    fn checkpoint_rollback_restores_membership() {
        let (mut ov, mut rng) = build(150, 19);
        let before: Vec<Id> = ov.ids().collect();
        let cp = ov.checkpoint();
        assert_eq!(cp.len(), 150);
        assert!(!cp.is_empty());
        // Mutate hard: kill 40 nodes, add 15 fresh ones, route a bit.
        let victims: Vec<Id> = before.iter().take(40).copied().collect();
        ov.remove_nodes(&victims);
        for _ in 0..15 {
            ov.add_random_node(&mut rng);
        }
        for _ in 0..20 {
            let src = ov.random_node(&mut rng).unwrap();
            ov.route(src, Id::random(&mut rng)).unwrap();
        }
        assert_ne!(ov.ids().collect::<Vec<_>>(), before);
        ov.rollback(&cp);
        assert_eq!(ov.ids().collect::<Vec<_>>(), before);
        assert_eq!(ov.leafset_drift(), None);
        ov.assert_tables_structurally_valid();
        // Rolled-back state routes identically to a pristine deep clone.
        let mut oracle = ov.deep_clone();
        let mut rng2 = StdRng::seed_from_u64(123);
        for _ in 0..40 {
            let src = ov.random_node(&mut rng2).unwrap();
            let key = Id::random(&mut rng2);
            assert_eq!(
                ov.route(src, key).unwrap().path,
                oracle.route(src, key).unwrap().path
            );
        }
    }

    #[test]
    fn cow_clones_isolate_writes_both_ways() {
        let (mut ov, mut rng) = build(100, 20);
        let mut snap = ov.clone();
        assert_eq!(ov.handles_shared_with(&snap), 100, "clone is all-shared");
        // Writes on the original never surface in the snapshot...
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(snap.is_live(victim), "snapshot must not see the kill");
        assert_eq!(snap.leafset_drift(), None);
        // ...and writes on the snapshot never surface in the original.
        let victim2 = loop {
            let v = snap.random_node(&mut rng).unwrap();
            if ov.is_live(v) {
                break v;
            }
        };
        assert!(snap.remove_node(victim2));
        assert!(ov.is_live(victim2), "original must not see snapshot kill");
        assert_eq!(ov.leafset_drift(), None);
        assert_eq!(snap.leafset_drift(), None);
        // Untouched nodes remain physically shared.
        assert!(ov.handles_shared_with(&snap) > 0);
    }

    #[test]
    fn remove_unknown_is_noop() {
        let (mut ov, mut rng) = build(10, 13);
        assert!(!ov.remove_node(Id::random(&mut rng)));
        assert_eq!(ov.len(), 10);
    }

    #[test]
    fn route_from_dead_node_fails() {
        let (mut ov, mut rng) = build(10, 14);
        let victim = ov.random_node(&mut rng).unwrap();
        ov.remove_node(victim);
        let key = Id::random(&mut rng);
        assert_eq!(
            ov.route(victim, key),
            Err(RouteError::UnknownSource(victim))
        );
    }

    #[test]
    fn a_hop_at_a_departed_node_is_stuck_not_a_panic() {
        let (mut ov, mut rng) = build(10, 26);
        let victim = ov.random_node(&mut rng).unwrap();
        ov.remove_node(victim);
        let key = Id::random(&mut rng);
        let at = ov.slot(victim).expect("a departed id keeps its slot");
        for ring_mode in [false, true] {
            assert_eq!(
                ov.forward_from(victim, at, key, ring_mode),
                Err(RouteError::Stuck { at: victim, key })
            );
        }
    }

    #[test]
    fn what_a_hop_reads_fits_four_cache_lines() {
        // A table step reads the current node's arena entry (32 bytes, so
        // within one line), then, past the 16-byte `Arc` header, the
        // handle's first 112 bytes (two lines) — the table (owner, digit
        // width, grid pointer) and the leaf set ahead of its inline sides
        // (the edges and lengths `covers` reads; leafset.rs checks the
        // sides come last) — and one four-byte cell. The next hop's arena
        // entry, read for liveness, is the one the next step starts from.
        // A field put ahead of them must not silently cost another line.
        // A leaf step reads the sides too: with slots the whole handle is
        // 152 bytes, three lines with its header.
        use std::mem::{offset_of, size_of};
        assert_eq!(size_of::<Member>(), 32);
        let sides = 2 * HALF * size_of::<Slot>();
        let table = offset_of!(NodeHandle, table) + size_of::<RoutingTable>();
        let edges = offset_of!(NodeHandle, leafset) + size_of::<LeafSet>() - sides;
        assert!(table <= 112 && edges <= 112, "{table} {edges}");
        assert!(
            size_of::<NodeHandle>() <= 152,
            "{}",
            size_of::<NodeHandle>()
        );
    }

    #[test]
    fn random_node_is_roughly_uniform() {
        let (ov, mut rng) = build(20, 15);
        let mut counts: std::collections::HashMap<Id, usize> = std::collections::HashMap::new();
        for _ in 0..4000 {
            *counts.entry(ov.random_node(&mut rng).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 20, "every node should be sampled");
    }

    #[test]
    fn tiny_ring_smaller_than_leafset() {
        // 5 nodes with |L| = 16: every leaf set holds everyone; routing is
        // one leaf-set step.
        let (mut ov, mut rng) = build(5, 16);
        for _ in 0..20 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let out = ov.route(src, key).unwrap();
            assert_eq!(out.root, ov.owner_of(key).unwrap());
            assert!(out.hops() <= 1);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::substrate::KeyRouter;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`Overlay::rare_case`] as it was before it measured in limbs: each
    /// candidate an `(Id, Id)` distance key, and the shared prefix asked of
    /// every candidate closer than `current`.
    fn rare_case_by_tuples(
        ov: &Overlay,
        node: &NodeHandle,
        current: Id,
        key: Id,
        ring_mode: bool,
    ) -> (IdStep, Vec<Id>) {
        let own_prefix = current.shared_prefix_digits(key, ov.config.b);
        let here = (key.ring_distance(current), current);
        let mut best_pastry: Option<(Id, Id)> = None;
        let mut best_greedy: Option<(Id, Id)> = None;
        let mut stale = Vec::new();
        let table = node.table.entries().filter_map(|s| ov.id_of(s));
        for c in table.chain(node.leafset.members().map(|s| ov.leaf_id(s))) {
            if !ov.is_live(c) {
                stale.push(c);
                continue;
            }
            let cand = (key.ring_distance(c), c);
            if cand >= here {
                continue;
            }
            if best_greedy.is_none_or(|b| cand < b) {
                best_greedy = Some(cand);
            }
            if c.shared_prefix_digits(key, ov.config.b) >= own_prefix
                && best_pastry.is_none_or(|b| cand < b)
            {
                best_pastry = Some(cand);
            }
        }
        let sees_whole_ring = node.leafset.len() < 2 * HALF;
        if !ring_mode {
            if let Some((_, b)) = best_pastry {
                return (Ok((Some(b), false)), stale);
            }
        }
        let step = match best_greedy {
            Some((_, b)) => Ok((Some(b), true)),
            None if sees_whole_ring => Ok((None, false)),
            None => Err(RouteError::Stuck { at: current, key }),
        };
        (step, stale)
    }

    /// A forwarding decision with the next hop named by id alone.
    type IdStep = Result<(Option<Id>, bool), RouteError>;

    /// [`Overlay::rare_case`] by id, checking on the way that each slot it
    /// names is its id's, that every entry it reports stale is departed,
    /// and that its hop is progress: a live node strictly closer to `key`
    /// than `current`, which on a Pastry step (not greedy, never in ring
    /// mode) also shares at least as long a prefix with `key`.
    fn rare_case_by_id(
        ov: &Overlay,
        node: &NodeHandle,
        current: Id,
        key: Id,
        ring_mode: bool,
    ) -> (IdStep, Vec<Id>) {
        let (step, stale) = ov.rare_case(node, current, key, ring_mode);
        let named = step.iter().flat_map(|(next, _)| next).chain(&stale);
        for &(id, slot) in named {
            assert_eq!(ov.slot(id), Some(slot), "{id:?}");
        }
        assert!(stale.iter().all(|&(id, _)| !ov.is_live(id)));
        if let Ok((Some((next, _)), greedy)) = step {
            let prefix = |x: Id| x.shared_prefix_digits(key, ov.config.b);
            assert!(ov.is_live(next) && next.closer_to(key, current));
            assert!(greedy || (!ring_mode && prefix(next) >= prefix(current)));
        }
        let step = step.map(|(next, greedy)| (next.map(|(id, _)| id), greedy));
        (step, stale.into_iter().map(|(id, _)| id).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The limb scan makes the tuple scan's decision — next hop, greedy
        /// flag, error — and trips over the same dead entries in the same
        /// order, at every node of rings from one node to 120, for random
        /// keys and each node's own id, in both routing modes. Nodes are
        /// killed without routing first, so tables hold dead entries.
        /// `rare_case_by_id` also checks that each hop is progress.
        #[test]
        fn prop_limb_scan_matches_the_tuple_scan(
            seed in any::<u64>(),
            n in 1usize..=120,
            kills in 0usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..n {
                ov.add_random_node(&mut rng);
            }
            for _ in 0..kills.min(n - 1) {
                let victim = ov.random_node(&mut rng).unwrap();
                ov.remove_node(victim);
            }
            let ids: Vec<Id> = ov.ids().collect();
            for &current in &ids {
                let (_, node) = ov.live(current).unwrap();
                let keys = [Id::random(&mut rng), Id::random(&mut rng), current];
                for key in keys {
                    for ring_mode in [false, true] {
                        prop_assert_eq!(
                            rare_case_by_id(&ov, node, current, key, ring_mode),
                            rare_case_by_tuples(&ov, node, current, key, ring_mode)
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_route_agrees_with_oracle_under_arbitrary_churn(
            seed in any::<u64>(),
            script in proptest::collection::vec(any::<u8>(), 10..60),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..40 {
                ov.add_random_node(&mut rng);
            }
            for op in script {
                match op % 3 {
                    0 => {
                        ov.add_random_node(&mut rng);
                    }
                    1 if ov.len() > 5 => {
                        let victim = ov.random_node(&mut rng).unwrap();
                        ov.remove_node(victim);
                    }
                    _ => {
                        let src = ov.random_node(&mut rng).unwrap();
                        let key = Id::random(&mut rng);
                        let got = ov.route(src, key).unwrap();
                        prop_assert_eq!(got.root, ov.owner_of(key).unwrap());
                    }
                }
            }
            assert_eq!(ov.leafset_drift(), None);
            ov.assert_tables_structurally_valid();
        }

        #[test]
        fn prop_snapshots_match_deep_clones_and_stay_isolated(
            seed in any::<u64>(),
            script in proptest::collection::vec(any::<u8>(), 8..40),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..32 {
                ov.add_random_node(&mut rng);
            }

            // A pristine deep clone and a checkpoint taken at the same
            // instant, plus a live COW snapshot that must never observe
            // the writes applied to `ov` below.
            let oracle = ov.deep_clone();
            let cp = ov.checkpoint();
            let witness = ov.clone();
            let mut witness_ids: Vec<Id> = witness.ids().collect();
            witness_ids.sort();

            for op in script {
                match op % 3 {
                    0 => {
                        ov.add_random_node(&mut rng);
                    }
                    1 if ov.len() > 5 => {
                        let victim = ov.random_node(&mut rng).unwrap();
                        ov.remove_node(victim);
                    }
                    2 if ov.len() > 8 => {
                        let mut victims: Vec<Id> = (0..3)
                            .filter_map(|_| ov.random_node(&mut rng))
                            .collect();
                        victims.sort();
                        victims.dedup();
                        ov.remove_nodes(&victims);
                    }
                    _ => {}
                }
            }

            // Two live snapshots never observe each other's writes.
            let mut still: Vec<Id> = witness.ids().collect();
            still.sort();
            prop_assert_eq!(&still, &witness_ids);

            // Rollback restores the pre-script membership exactly…
            ov.rollback(&cp);
            let mut rolled: Vec<Id> = ov.ids().collect();
            rolled.sort();
            let mut pristine: Vec<Id> = oracle.ids().collect();
            pristine.sort();
            prop_assert_eq!(rolled, pristine);

            // …and the rolled-back overlay routes identically to the
            // pristine deep clone, path for path, for every probed key.
            // Routing mutates (lazy table eviction), so each side probes
            // its own clone; observable behavior must not differ.
            let mut probe = ov.clone();
            let mut oracle_probe = oracle.deep_clone();
            for _ in 0..16 {
                let src = probe.random_node(&mut rng).unwrap();
                let key = Id::random(&mut rng);
                let got = probe.route(src, key).unwrap();
                let want = oracle_probe.route(src, key).unwrap();
                prop_assert_eq!(got.path, want.path);
            }
            assert_eq!(ov.leafset_drift(), None);
            ov.assert_tables_structurally_valid();
        }

        #[test]
        fn prop_k_closest_is_sorted_and_distinct(
            seed in any::<u64>(),
            k in 1usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..30 {
                ov.add_random_node(&mut rng);
            }
            let key = Id::random(&mut rng);
            let closest = ov.k_closest(key, k);
            prop_assert_eq!(closest.len(), k.min(30));
            for w in closest.windows(2) {
                prop_assert_ne!(w[0], w[1]);
                prop_assert_ne!(
                    key.cmp_distance(w[0], w[1]),
                    std::cmp::Ordering::Greater,
                    "k_closest must be sorted by distance"
                );
            }
        }
    }

    /// `replica_sets` through the trait, against one `k_closest` a key: on
    /// a ring of `n` nodes, some of them just below `Id::MAX` and just
    /// above zero, sixteen runs of keys in clockwise order from a start
    /// (a member, an id near an end of the ring, or any id) within a span
    /// of it (a few ids, up to a 2^c-th of the ring, or all of it) —
    /// members among them, and arcs that wrap past `Id::MAX` — and now and
    /// then the same keys shuffled. The sets are appended after what `out`
    /// held, and the empty ring has none to give.
    fn replica_sets_match_k_closest(seed: u64, n: usize, k: usize) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let near_ends = |rng: &mut StdRng| {
            let small = Id::from_u64(rng.gen_range(0..1 << 20));
            [small, Id::MAX.wrapping_sub(small)][rng.gen_range(0..2)]
        };
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        while ov.len() < n {
            let id = match rng.gen_range(0..3) {
                0 => near_ends(&mut rng),
                _ => Id::random(&mut rng),
            };
            ov.add_node(id);
        }
        let members: Vec<Id> = ov.ids().collect();
        for _ in 0..16 {
            let start = match rng.gen_range(0..3) {
                0 if n > 0 => members[rng.gen_range(0..n)],
                1 => near_ends(&mut rng),
                _ => Id::random(&mut rng),
            };
            let width = rng.gen_range(0..10u8);
            let offset = |rng: &mut StdRng| match width {
                0 => Id::from_u64(rng.gen_range(0..1 << 21)),
                w => {
                    let mut bytes = *Id::random(rng).as_bytes();
                    bytes[0] &= (0xff_u16 >> (9 - w)) as u8;
                    Id::from_bytes(bytes)
                }
            };
            let span = offset(&mut rng);
            let within = |id: Id| start.clockwise_distance(id) <= span;
            let mut keys: Vec<Id> = (members.iter().copied())
                .filter(|&m| within(m) && rng.gen())
                .collect();
            for _ in 0..rng.gen_range(0..16) {
                keys.push(start.wrapping_add(offset(&mut rng)));
            }
            // Keys as far from one neighbour as from the other, where the
            // tie-break decides, for members near an end of the ring.
            let end = Id::from_u64(1 << 20);
            for pair in members.windows(2) {
                let low = pair[1] < end;
                let high = Id::MAX.wrapping_sub(pair[0]) < end;
                let [x, y] = [pair[0], pair[1]]
                    .map(|m| if low { m } else { Id::MAX.wrapping_sub(m) }.low_u64());
                if (low || high) && (x + y) % 2 == 0 && rng.gen() {
                    let mid = Id::from_u64((x + y) / 2);
                    keys.push(if low { mid } else { Id::MAX.wrapping_sub(mid) });
                }
            }
            keys.retain(|&key| within(key));
            keys.sort_by_key(|&key| start.clockwise_distance(key));
            keys.dedup();
            if rng.gen_range(0..8) == 0 {
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.gen_range(0..=i));
                }
            }
            let mut out = vec![Id::MAX; rng.gen_range(0..3)];
            let kept = out.clone();
            KeyRouter::replica_sets(&ov, &keys, k, &mut out);
            let want: Vec<Id> = keys.iter().flat_map(|&key| ov.k_closest(key, k)).collect();
            prop_assert_eq!(&out[..kept.len()], &kept[..]);
            prop_assert_eq!(&out[kept.len()..], &want[..]);
            prop_assert_eq!(want.len(), keys.len() * k.min(n));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Rings of 0 … 60 nodes and `k` in 1 ..= 8: empty, smaller than
        /// `k`, smaller than the stretch a walk merges (the per-key path),
        /// and larger.
        #[test]
        fn prop_replica_sets_match_k_closest(
            seed in any::<u64>(),
            n in 0usize..=60,
            k in 1usize..=8,
        ) {
            replica_sets_match_k_closest(seed, n, k)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]
        /// The same differential at CI scale (release, `--ignored`).
        #[test]
        #[ignore]
        fn prop_replica_sets_match_k_closest_1000_cases(
            seed in any::<u64>(),
            n in 0usize..=60,
            k in 1usize..=8,
        ) {
            replica_sets_match_k_closest(seed, n, k)?;
        }
    }
}
