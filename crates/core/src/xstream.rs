//! Streaming X-measure maintenance under fleet churn.
//!
//! [`XScan`](crate::xengine::XScan) answers O(1) *replace* queries but
//! pays O(n) whenever membership changes — fine for the §3 upgrade
//! engine, fatal for a million-worker fleet where computers join and
//! leave continuously. [`ChurnScan`] keeps the Theorem 2 sum
//!
//! ```text
//! X(P) = Σ_i S_i / d_i     with  d_i = Bρ_i + A,
//!                                r_i = (Bρ_i + τδ)/d_i,
//!                                S_i = Π_{j<i} r_j
//! ```
//!
//! live under `insert`/`delete`/`replace` at amortized O(log n) per
//! operation, using two facts:
//!
//! * **Order independence** (Theorem 1(2)): `X` does not depend on the
//!   order in which the ρ-values are listed, so a deletion anywhere may
//!   be *backfilled by the global tail element* and an insertion may
//!   always append — membership edits never shift more than one slot.
//! * **Segmented associativity**: over a concatenation `L ++ R`,
//!   `X(L ++ R) = X(L) + S(L)·X(R)` where `S(L) = Π_{i∈L} r_i`. The pair
//!   `(X, S)` is therefore a monoid summary, and a balanced tree of
//!   segment summaries re-derives the fleet value from one edited
//!   segment in O(log n) combines.
//!
//! Workers sit in one flat slab, in *scan order*. Inserts append and
//! deletes backfill from the global tail, so every segment of
//! [`SEGMENT_CAPACITY`] positions except the last is always full:
//! segment `i` is simply positions `[64i, min(64i + 64, n))`. Each
//! position's `Slot` holds its `d_i`, `r_i` and the Neumaier-compensated
//! recurrence state *after* it — the segment-local sum and prefix
//! product exactly as
//! [`x_measure_of_rhos`](crate::xmeasure::x_measure_of_rhos) would leave
//! them. The state before a position is the identity at a segment start
//! and the previous slot's state otherwise. Appending is one fused
//! Neumaier step, truncating the tail is O(1), and rewriting an interior
//! position re-consolidates only the rest of its segment (at most
//! `SEGMENT_CAPACITY` steps, never the whole fleet). The ρ-values live
//! in their own array, so [`ChurnScan::to_rhos`] is one copy. A
//! power-of-two segment tree over the `(sum, prod)` segment summaries
//! then folds the global value.
//!
//! [`WorkerId`] handles are generational: a handle table maps the
//! handle's index to the worker's position, and a per-position owner
//! index lets a backfill move repoint it. A deleted worker's table entry
//! goes on a free list for the next insert, with its generation bumped,
//! so the table never holds more entries than the peak live fleet and a
//! stale handle is rejected rather than aliasing its slot's new tenant.
//!
//! The result is *not* bit-identical to a flat
//! [`x_measure_of_rhos`](crate::xmeasure::x_measure_of_rhos) pass — the
//! segment combines associate the sum differently — but it stays within
//! the workspace-wide ≤ 1e-12 relative bound of a from-scratch rebuild
//! under arbitrarily long churn sequences (property-tested, plus
//! exact-rational Ratio oracle spot checks in the integration suite). It
//! is a deterministic function of the operation sequence, pinned bit for
//! bit by `tests/golden/churn.txt`.

use crate::numeric::KahanSum;
use crate::{ModelError, Params, Profile};

/// Positions per segment. Interior rewrites re-consolidate at most this
/// many Neumaier steps, so the constant bounds the "O(1)-ish" local cost
/// while `n / SEGMENT_CAPACITY` summaries keep the tree shallow. The
/// segment boundaries decide how the sum associates, so changing the
/// constant changes the bits of [`ChurnScan::x`].
pub const SEGMENT_CAPACITY: usize = 64;

/// A handle naming one worker inside a [`ChurnScan`], valid until that
/// worker is deleted. Handles survive the internal moves that deletions
/// cause. The raw value is `generation << 32 | index`: a deleted
/// worker's index is reused by a later insert under a new generation,
/// so an old handle never names the new worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId(u64);

impl WorkerId {
    fn new(index: u32, generation: u32) -> Self {
        WorkerId((u64::from(generation) << 32) | u64::from(index))
    }

    fn index(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw handle value (diagnostic display only).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// One position of the slab: the worker's Theorem 2 terms and the
/// segment-local recurrence state after it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    d: f64,
    r: f64,
    /// Compensated segment-local sum through this position.
    sum: KahanSum,
    /// Segment-local prefix product through this position.
    prod: f64,
}

/// A handle-table entry.
#[derive(Debug, Clone, Copy)]
struct Handle {
    /// The worker's position, or [`VACANT`] while the entry is free.
    pos: u32,
    /// The generation a live handle for this entry carries.
    generation: u32,
}

/// [`Handle::pos`] of a free (or retired) table entry.
const VACANT: u32 = u32::MAX;

/// The `(sum, prod)` combine over a concatenation: right segment's terms
/// all carry the left segment's residual product.
#[inline]
fn combine(l: (f64, f64), r: (f64, f64)) -> (f64, f64) {
    (l.0 + l.1 * r.0, l.1 * r.1)
}

/// Identity of [`combine`]: the empty cluster (`X = 0`, `S = 1`).
const IDENTITY: (f64, f64) = (0.0, 1.0);

/// A streaming X-measure scan over a churning fleet: amortized-O(log n)
/// [`insert`](ChurnScan::insert), [`delete`](ChurnScan::delete), and
/// [`replace`](ChurnScan::replace) with the live value always one O(1)
/// [`x`](ChurnScan::x) read away. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct ChurnScan {
    a: f64,
    b: f64,
    td: f64,
    /// Per position, in scan order.
    slots: Vec<Slot>,
    /// Per position: the worker's ρ.
    rhos: Vec<f64>,
    /// Per position: the worker's handle-table index.
    owner: Vec<u32>,
    /// Segment tree over segment summaries: `tree[cap + i]` is segment
    /// `i`'s summary, `tree[1]` the fleet's `(X, S)`.
    tree: Vec<(f64, f64)>,
    /// Leaf capacity of `tree` (power of two ≥ the segment count).
    cap: usize,
    /// Handle index → the worker's position and live generation.
    handles: Vec<Handle>,
    /// Free handle-table indices, reused last-freed first.
    free: Vec<u32>,
}

impl ChurnScan {
    /// An empty scan (`X = 0`) for the given environment parameters.
    pub fn new(params: &Params) -> Self {
        ChurnScan {
            a: params.a(),
            b: params.b(),
            td: params.tau_delta(),
            slots: Vec::new(),
            rhos: Vec::new(),
            owner: Vec::new(),
            tree: vec![IDENTITY; 2],
            cap: 1,
            handles: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A scan pre-loaded with a fleet, returning each worker's handle in
    /// input order. Validates every ρ the way [`Profile`] does.
    pub fn from_rhos(params: &Params, rhos: &[f64]) -> Result<(Self, Vec<WorkerId>), ModelError> {
        let mut scan = ChurnScan::new(params);
        let mut ids = Vec::with_capacity(rhos.len());
        for &rho in rhos {
            ids.push(scan.insert(rho)?);
        }
        Ok((scan, ids))
    }

    /// [`ChurnScan::from_rhos`] over a validated [`Profile`].
    pub fn from_profile(params: &Params, profile: &Profile) -> (Self, Vec<WorkerId>) {
        // hetero-check: allow(expect) — Profile construction already validated every ρ finite and positive
        Self::from_rhos(params, profile.rhos()).expect("profiles hold validated speeds")
    }

    /// Fleet size.
    pub fn n(&self) -> usize {
        self.rhos.len()
    }

    /// `true` when no workers remain.
    pub fn is_empty(&self) -> bool {
        self.rhos.is_empty()
    }

    /// The live `X` of the current fleet (0 for an empty fleet) — an O(1)
    /// read of the tree root.
    pub fn x(&self) -> f64 {
        self.tree[1].0
    }

    /// The live residual product `S = Π_i r_i` (the quantity whose log
    /// the [`hcompress`](crate::hcompress) summaries track).
    pub fn residual_product(&self) -> f64 {
        self.tree[1].1
    }

    /// The current ρ of a worker.
    pub fn rho_of(&self, id: WorkerId) -> Result<f64, ModelError> {
        let pos = self.locate(id)?;
        Ok(self.rhos[pos])
    }

    /// The current fleet's speeds in scan order (tests compare this
    /// arrangement against a from-scratch rebuild; by Theorem 1(2) the
    /// order itself carries no meaning).
    pub fn to_rhos(&self) -> Vec<f64> {
        self.rhos.clone()
    }

    /// Adds a worker, returning its handle. Amortized O(1) local work
    /// (one fused Neumaier append) plus an O(log n) tree path.
    pub fn insert(&mut self, rho: f64) -> Result<WorkerId, ModelError> {
        let pos = self.n();
        let (d, r) = self.terms(rho, pos)?;
        hetero_obs::counters::XSCAN_INSERT.bump();
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.handles.push(Handle {
                    pos: VACANT,
                    generation: 0,
                });
                (self.handles.len() - 1) as u32
            }
        };
        let handle = &mut self.handles[index as usize];
        handle.pos = pos as u32;
        let id = WorkerId::new(index, handle.generation);
        self.slots.push(Slot {
            d,
            r,
            sum: KahanSum::new(),
            prod: 1.0,
        });
        self.rhos.push(rho);
        self.owner.push(index);
        self.reconsolidate_from(pos);
        let seg = pos / SEGMENT_CAPACITY;
        if seg >= self.cap {
            self.grow_tree();
        } else {
            self.refresh_leaf(seg);
        }
        Ok(id)
    }

    /// Removes a worker. The hole is backfilled by the fleet's tail
    /// element (legal by Theorem 1(2) order independence), so only one
    /// segment suffix re-consolidates: O([`SEGMENT_CAPACITY`]) local work
    /// plus O(log n) tree updates.
    pub fn delete(&mut self, id: WorkerId) -> Result<(), ModelError> {
        let pos = self.locate(id)?;
        hetero_obs::counters::XSCAN_DELETE.bump();
        self.release(id);
        // hetero-check: allow(expect) — `locate` succeeded, so the fleet is non-empty
        let tail_slot = self.slots.pop().expect("a live worker exists");
        let tail_rho = self.rhos.pop().unwrap_or(0.0);
        let tail_owner = self.owner.pop().unwrap_or(VACANT);
        let tail = self.n();
        let tail_seg = tail / SEGMENT_CAPACITY;
        if pos != tail {
            self.rhos[pos] = tail_rho;
            self.owner[pos] = tail_owner;
            self.handles[tail_owner as usize].pos = pos as u32;
            self.slots[pos] = tail_slot;
            self.reconsolidate_from(pos);
            if pos / SEGMENT_CAPACITY != tail_seg {
                self.refresh_leaf(pos / SEGMENT_CAPACITY);
            }
        }
        self.refresh_leaf(tail_seg);
        Ok(())
    }

    /// Rescales one worker's speed in place: a local suffix
    /// re-consolidation plus an O(log n) tree path. The churn-scan
    /// counterpart of [`XScan::commit`](crate::xengine::XScan::commit),
    /// but O(log n) instead of O(n). An invalid ρ is reported at the
    /// worker's position in [`to_rhos`](ChurnScan::to_rhos).
    pub fn replace(&mut self, id: WorkerId, rho: f64) -> Result<(), ModelError> {
        let pos = self.locate(id)?;
        let (d, r) = self.terms(rho, pos)?;
        hetero_obs::counters::XSCAN_REPLACE.bump();
        self.rhos[pos] = rho;
        let slot = &mut self.slots[pos];
        slot.d = d;
        slot.r = r;
        self.reconsolidate_from(pos);
        self.refresh_leaf(pos / SEGMENT_CAPACITY);
        Ok(())
    }

    /// Validates `rho` (reported at `pos`) and returns its `(d, r)`.
    fn terms(&self, rho: f64, pos: usize) -> Result<(f64, f64), ModelError> {
        if !(rho.is_finite() && rho > 0.0) {
            return Err(ModelError::InvalidRho {
                index: pos,
                value: rho,
            });
        }
        let d = self.b * rho + self.a;
        Ok((d, (self.b * rho + self.td) / d))
    }

    /// The live worker's position, or `IndexOutOfRange` for a handle
    /// that was never issued or whose worker is gone.
    fn locate(&self, id: WorkerId) -> Result<usize, ModelError> {
        match self.handles.get(id.index()) {
            Some(h) if h.pos != VACANT && h.generation == id.generation() => Ok(h.pos as usize),
            _ => Err(ModelError::IndexOutOfRange {
                index: id.0 as usize,
                n: self.n(),
            }),
        }
    }

    /// Frees a live handle's table entry under a new generation. An entry
    /// whose generation would wrap is retired instead, so no handle ever
    /// comes back to life.
    fn release(&mut self, id: WorkerId) {
        let handle = &mut self.handles[id.index()];
        handle.pos = VACANT;
        if let Some(next) = handle.generation.checked_add(1) {
            handle.generation = next;
            self.free.push(id.index() as u32);
        }
    }

    /// Lazy re-consolidation: recompute the recurrence state from `pos`
    /// to the end of its segment after a write at `pos` — at most
    /// [`SEGMENT_CAPACITY`] fused Neumaier steps.
    fn reconsolidate_from(&mut self, pos: usize) {
        let end = (pos / SEGMENT_CAPACITY + 1) * SEGMENT_CAPACITY;
        let (head, rest) = self.slots.split_at_mut(pos);
        let (mut sum, mut prod) = match head.last() {
            Some(prev) if !pos.is_multiple_of(SEGMENT_CAPACITY) => (prev.sum, prev.prod),
            _ => (KahanSum::new(), 1.0),
        };
        for slot in rest.iter_mut().take(end - pos) {
            sum.add(prod / slot.d);
            prod *= slot.r;
            slot.sum = sum;
            slot.prod = prod;
        }
    }

    /// Segment `seg`'s `(X, S)` summary ([`IDENTITY`] when empty).
    fn summary(&self, seg: usize) -> (f64, f64) {
        let end = ((seg + 1) * SEGMENT_CAPACITY).min(self.n());
        match self.slots.get(seg * SEGMENT_CAPACITY..end) {
            Some([.., last]) => (last.sum.value(), last.prod),
            _ => IDENTITY,
        }
    }

    fn refresh_leaf(&mut self, seg: usize) {
        let summary = self.summary(seg);
        let mut i = self.cap + seg;
        self.tree[i] = summary;
        while i > 1 {
            i /= 2;
            self.tree[i] = combine(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Doubles the tree's leaf capacity and refolds every summary —
    /// O(segments), amortized O(1) per insert across the growth schedule.
    fn grow_tree(&mut self) {
        let segs = self.n().div_ceil(SEGMENT_CAPACITY);
        self.cap = segs.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * self.cap, IDENTITY);
        for seg in 0..segs {
            self.tree[self.cap + seg] = self.summary(seg);
        }
        for i in (1..self.cap).rev() {
            self.tree[i] = combine(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmeasure::x_measure_of_rhos;

    fn params() -> Params {
        Params::paper_table1()
    }

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
    }

    /// The scan's value vs a from-scratch flat evaluation of its current
    /// arrangement — the workspace-wide incremental-vs-scratch bound.
    fn assert_matches_rebuild(scan: &ChurnScan, p: &Params) {
        let rhos = scan.to_rhos();
        if rhos.is_empty() {
            assert_eq!(scan.x(), 0.0);
        } else {
            let direct = x_measure_of_rhos(p, &rhos);
            assert!(
                rel_err(scan.x(), direct) < 1e-12,
                "churn {} vs rebuild {}",
                scan.x(),
                direct
            );
        }
    }

    #[test]
    fn empty_scan_is_zero() {
        let scan = ChurnScan::new(&params());
        assert!(scan.is_empty());
        assert_eq!(scan.x(), 0.0);
        assert_eq!(scan.residual_product(), 1.0);
    }

    #[test]
    fn inserts_track_the_flat_evaluation_across_segment_boundaries() {
        let p = params();
        let mut scan = ChurnScan::new(&p);
        // Straddle several segment boundaries (63/64/65, 127/128/129 …).
        for i in 0..300usize {
            scan.insert(1.0 / (1 + i % 17) as f64).unwrap();
            assert_eq!(scan.n(), i + 1);
            assert_matches_rebuild(&scan, &p);
        }
    }

    #[test]
    fn delete_backfills_from_the_tail() {
        let p = params();
        let profile = Profile::harmonic(130);
        let (mut scan, ids) = ChurnScan::from_profile(&p, &profile);
        // Delete from the front, the middle, a segment boundary, and the tail.
        for &victim in &[0usize, 64, 63, 129, 65, 1] {
            scan.delete(ids[victim]).unwrap();
            assert_matches_rebuild(&scan, &p);
        }
        assert_eq!(scan.n(), 124);
        // A deleted handle is gone.
        assert!(matches!(
            scan.delete(ids[0]),
            Err(ModelError::IndexOutOfRange { .. })
        ));
        assert!(scan.rho_of(ids[0]).is_err());
    }

    #[test]
    fn drain_to_empty_and_refill() {
        let p = params();
        let (mut scan, ids) = ChurnScan::from_rhos(&p, &[1.0, 0.5, 0.25]).unwrap();
        for id in ids {
            scan.delete(id).unwrap();
        }
        assert!(scan.is_empty());
        assert_eq!(scan.x(), 0.0);
        let id = scan.insert(0.5).unwrap();
        assert_matches_rebuild(&scan, &p);
        assert_eq!(scan.rho_of(id).unwrap(), 0.5);
    }

    #[test]
    fn replace_rescales_in_place() {
        let p = params();
        let profile = Profile::uniform_spread(100);
        let (mut scan, ids) = ChurnScan::from_profile(&p, &profile);
        scan.replace(ids[3], 0.01).unwrap();
        scan.replace(ids[99], 2.5).unwrap();
        assert_matches_rebuild(&scan, &p);
        assert_eq!(scan.rho_of(ids[3]).unwrap(), 0.01);
        assert_eq!(scan.n(), 100);
    }

    #[test]
    fn validation_errors() {
        let p = params();
        let mut scan = ChurnScan::new(&p);
        assert!(matches!(
            scan.insert(-1.0),
            Err(ModelError::InvalidRho { .. })
        ));
        assert!(matches!(
            scan.insert(f64::NAN),
            Err(ModelError::InvalidRho { .. })
        ));
        let id = scan.insert(1.0).unwrap();
        assert!(matches!(
            scan.replace(id, f64::INFINITY),
            Err(ModelError::InvalidRho { .. })
        ));
        assert!(ChurnScan::from_rhos(&p, &[1.0, 0.0]).is_err());
    }

    #[test]
    fn replace_reports_the_workers_position_for_an_invalid_rho() {
        let p = params();
        let (mut scan, ids) = ChurnScan::from_profile(&p, &Profile::harmonic(200));
        // Position 100 is slot 36 of segment 1; the error names 100.
        assert!(matches!(
            scan.replace(ids[100], f64::NAN),
            Err(ModelError::InvalidRho { index: 100, .. })
        ));
        // After a backfill the tail worker sits at the deleted position.
        scan.delete(ids[70]).unwrap();
        assert_eq!(scan.to_rhos()[70], scan.rho_of(ids[199]).unwrap());
        assert!(matches!(
            scan.replace(ids[199], 0.0),
            Err(ModelError::InvalidRho { index: 70, .. })
        ));
    }

    #[test]
    fn the_handle_table_stays_within_the_peak_live_count() {
        let p = params();
        let (mut scan, mut live) = ChurnScan::from_profile(&p, &Profile::harmonic(64));
        let mut peak = scan.n();
        for i in 0..100_000usize {
            live.push(scan.insert(1.0 / (1 + i % 13) as f64).unwrap());
            peak = peak.max(scan.n());
            let victim = live.swap_remove(i.wrapping_mul(7919) % live.len());
            scan.delete(victim).unwrap();
            assert_eq!(scan.n(), 64);
        }
        assert!(
            scan.handles.len() <= peak,
            "{} handle entries for a peak of {peak} live workers",
            scan.handles.len()
        );
        assert_matches_rebuild(&scan, &p);
    }

    #[test]
    fn order_independence_of_the_value() {
        // Theorem 1(2): the same multiset reached by different churn
        // histories yields the same X within the incremental bound.
        let p = params();
        let (scan_a, _) = ChurnScan::from_rhos(&p, &[1.0, 0.5, 0.25, 0.125]).unwrap();
        let (mut scan_b, ids) =
            ChurnScan::from_rhos(&p, &[0.125, 0.9, 0.25, 1.0, 0.5, 0.7]).unwrap();
        scan_b.delete(ids[1]).unwrap();
        scan_b.delete(ids[5]).unwrap();
        assert!(rel_err(scan_a.x(), scan_b.x()) < 1e-12);
    }

    #[test]
    fn matches_the_xscan_engine_on_a_static_fleet() {
        let p = params();
        let profile = Profile::harmonic(500);
        let (scan, _) = ChurnScan::from_profile(&p, &profile);
        let engine = crate::xengine::XScan::from_profile(&p, &profile);
        assert!(rel_err(scan.x(), engine.x()) < 1e-12);
    }
}
