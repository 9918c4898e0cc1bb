//! The sharded parameter store — the "parameter servers" of the paper's
//! architecture, collapsed into lock-guarded shards within one process.
//!
//! The hot path is allocation- and contention-conscious: workers reuse a
//! [`PullBuffer`] across steps (zero heap allocations in the steady state),
//! pushes can be applied shard-by-shard so concurrent workers only contend
//! on the shards they are currently touching, and every shard carries its
//! own version clock so staleness is measurable per shard — the substrate
//! OSP-style two-stage synchronization and per-shard SSP bounds need.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A contiguous, near-equal partition of `0..total` into parts — the single
/// source of truth for how parameters split into shards, and (reused one
/// level up) how shard indices split across parameter servers.
///
/// The split puts the one-element remainders on the leading parts, which
/// makes it *self-similar*: partitioning a contiguous run of parts' combined
/// extent again with `ShardLayout::new` reproduces exactly the same interior
/// boundaries. [`crate::PsServer`] relies on this to give each server a
/// local store whose shard boundaries coincide with the global layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// `(offset, len)` of every part, contiguous and covering `0..total`.
    ranges: Vec<(usize, usize)>,
    total: usize,
}

impl ShardLayout {
    /// Partitions `0..total` into `parts` contiguous near-equal ranges
    /// (clamped to `total` so no part is empty).
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or `parts == 0`.
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(total > 0, "cannot partition an empty range");
        assert!(parts > 0, "need at least one part");
        let parts = parts.min(total);
        let base = total / parts;
        let rem = total % parts;
        let mut ranges = Vec::with_capacity(parts);
        let mut offset = 0;
        for i in 0..parts {
            let len = base + usize::from(i < rem);
            ranges.push((offset, len));
            offset += len;
        }
        ShardLayout { ranges, total }
    }

    /// Number of parts.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Always false: a layout has at least one part.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Size of the partitioned range.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `(offset, len)` of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn range(&self, i: usize) -> (usize, usize) {
        self.ranges[i]
    }

    /// Iterates over the `(offset, len)` ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges.iter().copied()
    }
}

/// The pieces of `runs` — sorted, disjoint `(offset, len)` ranges — that
/// fall inside `offset..offset + len`, in order and in the runs' own
/// coordinates. The one place a run list is cut to a shard's or a server's
/// extent, for pushes and pulls alike.
pub(crate) fn runs_within(
    runs: &[(usize, usize)],
    offset: usize,
    len: usize,
) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    let end = offset + len;
    let first = runs.partition_point(|&(o, l)| o + l <= offset);
    runs[first..]
        .iter()
        .take_while(move |&&(o, _)| o < end)
        .map(move |&(o, l)| {
            let start = o.max(offset);
            (start, (o + l).min(end) - start)
        })
}

/// The payload of one shard update: the full dense gradient slice, or a
/// sparse set of segments for workloads (embedding tables) whose per-batch
/// gradient touches only a few rows.
///
/// `Sparse` is **semantically identical** to a dense update whose gradient
/// is the segments scattered into a zero vector: momentum still decays on
/// every element (`v ← μv` where the gradient is zero), the shard clock
/// still bumps once, and the numerics match the dense apply bit for bit.
/// What changes is what has to *move* — a push ships only the touched rows,
/// which is the entire point once the update crosses a wire
/// ([`crate::transport::wire`]'s `PushShardSparse` frame) — and what the
/// apply has to *walk*: only the blocks of 64 elements its segments
/// overlap. Every other written block owes the zero-gradient step instead,
/// and whoever next reads the block — a pull, a stage-2 commit, a snapshot
/// — first runs the steps it owes, which are the very operations the dense
/// loop would have run on it, in the same order. A block no update has
/// written yet has all-zero velocity, so it owes nothing.
///
/// The one footnote to "bit for bit": a parameter that is exactly `-0.0`
/// in a never-written block keeps its sign, where the dense loop's `p + 0.0`
/// would have made it `+0.0`. The two are equal under `==`, and
/// `to_bits`-equal whenever no initial parameter is `-0.0`.
#[derive(Debug, Clone, Copy)]
pub enum UpdateData<'a> {
    /// The gradient slice for the whole shard.
    Dense(&'a [f32]),
    /// Sorted, disjoint `(start, len)` segments within the shard plus their
    /// concatenated gradient values.
    Sparse {
        /// `(start, len)` of each segment, shard-relative, ascending and
        /// non-overlapping.
        indices: &'a [(u32, u32)],
        /// The segments' gradient values, concatenated in segment order
        /// (`rows.len()` = sum of segment lengths).
        rows: &'a [f32],
    },
}

/// One parameter shard: a contiguous slice of the flat parameter vector and
/// its momentum (velocity) state. In TensorFlow each PS owns a subset of the
/// model variables; a shard plays exactly that role.
#[derive(Debug)]
struct Shard {
    params: Vec<f32>,
    velocity: Vec<f32>,
    touched: Touched,
}

impl Shard {
    fn new(params: &[f32]) -> Self {
        Shard {
            params: params.to_vec(),
            velocity: vec![0.0; params.len()],
            touched: Touched::new(params.len()),
        }
    }

    /// Runs the zero-gradient steps each written block of `blocks` owes up
    /// to clock `to`, and sets its clock there.
    fn catch_up(&mut self, blocks: std::ops::Range<usize>, to: u64) {
        let (len, mu) = (self.params.len(), self.touched.mu);
        for b in blocks {
            let clock = self.touched.clocks[b];
            if clock == 0 || clock >= to {
                continue;
            }
            self.decay(b * BLOCK..((b + 1) * BLOCK).min(len), mu, to - clock);
            self.touched.clocks[b] = to;
        }
    }

    /// Settles what every block owes.
    fn settle_all(&mut self) {
        if self.touched.lagging {
            self.catch_up(0..self.touched.clocks.len(), self.touched.now);
            self.touched.lagging = false;
        }
    }

    /// `k` zero-gradient momentum steps, `v ← μv; p ← p + v`, on every
    /// element of `r` (none if `r` is empty or inverted): per element the
    /// same operations in the same order as `k` passes of the dense loop,
    /// so the same bits. Sixteen elements at a time stay in registers
    /// across all `k` steps, loaded and stored once.
    fn decay(&mut self, r: std::ops::Range<usize>, mu: f32, k: u64) {
        const LANES: usize = 16;
        let r = r.start..r.end.max(r.start);
        let mut ps = self.params[r.clone()].chunks_exact_mut(LANES);
        let mut vs = self.velocity[r].chunks_exact_mut(LANES);
        for (p, v) in (&mut ps).zip(&mut vs) {
            let mut pr: [f32; LANES] = (&*p).try_into().expect("a whole chunk");
            let mut vr: [f32; LANES] = (&*v).try_into().expect("a whole chunk");
            for _ in 0..k {
                for (p, v) in pr.iter_mut().zip(&mut vr) {
                    *v *= mu;
                    *p += *v;
                }
            }
            p.copy_from_slice(&pr);
            v.copy_from_slice(&vr);
        }
        for (p, v) in ps.into_remainder().iter_mut().zip(vs.into_remainder()) {
            for _ in 0..k {
                *v *= mu;
                *p += *v;
            }
        }
    }
}

/// Elements per block of a shard's [`Touched`] map.
const BLOCK: usize = 64;

/// How far each block of a shard is behind. A block's clock is 0 until an
/// update writes it — all-zero velocity and the parameters the store was
/// built from, so nothing ever decays it and a stage-2 commit need not
/// copy it — and after that the shard's `now` when the block was last
/// brought up to date. A sparse apply advances `now` and brings up to date
/// only the blocks its segments overlap; every other written block then
/// owes `now − clock` zero-gradient steps at the shard's one owed `mu`,
/// which a reader settles before it reads the shard
/// ([`Shard::settle_all`]).
/// A dense apply and a restore leave every block up to date.
#[derive(Debug)]
struct Touched {
    clocks: Vec<u64>,
    /// Sparse applies so far, plus one: the clock of a block that owes
    /// nothing.
    now: u64,
    /// The momentum of every step owed. A push with another one settles
    /// the shard first.
    mu: f32,
    /// Whether some written block may owe steps. While false — every shard
    /// of a dense workload, always — a settle is this one branch.
    lagging: bool,
    /// Blocks still unwritten. At zero, [`Touched::runs`] is the whole
    /// range asked for and no block is looked at.
    unmarked: usize,
}

impl Touched {
    fn new(len: usize) -> Self {
        let blocks = len.div_ceil(BLOCK);
        Touched {
            clocks: vec![0; blocks],
            now: 1,
            mu: 0.0,
            lagging: false,
            unmarked: blocks,
        }
    }

    /// Sets the clock of every block overlapping `start..start + len` to
    /// `now`: the caller has brought them up to date.
    fn mark(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for clock in &mut self.clocks[start / BLOCK..=(start + len - 1) / BLOCK] {
            self.unmarked -= usize::from(*clock == 0);
            *clock = self.now;
        }
    }

    /// Marks every block up to date, forgiving what any owed.
    fn mark_all(&mut self) {
        if self.unmarked > 0 || self.lagging {
            self.clocks.fill(self.now);
            self.unmarked = 0;
            self.lagging = false;
        }
    }

    /// The maximal `(start, end)` element ranges of `from..to` that lie in
    /// written blocks, in order.
    fn runs(&self, from: usize, to: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut at = from;
        let next_block = |at: usize| (at / BLOCK + 1) * BLOCK;
        std::iter::from_fn(move || {
            if self.unmarked == 0 {
                let whole = (at < to).then_some((at, to));
                at = to;
                return whole;
            }
            while at < to && self.clocks[at / BLOCK] == 0 {
                at = next_block(at);
            }
            if at >= to {
                return None;
            }
            let start = at;
            while at < to && self.clocks[at / BLOCK] != 0 {
                at = next_block(at);
            }
            Some((start, at.min(to)))
        })
    }
}

/// A reusable pull destination, the same for every data plane: the flat
/// parameter image, the clock of every shard observed while that shard was
/// copied (live on the single store, committed through a router), and the
/// version of the pulled data.
///
/// Construct once per worker and hand it to the plane's pull every step;
/// after the first pull no further heap allocation happens (the backing
/// vectors are resized once and then rewritten in place). The routers
/// assemble — and the wire client decodes — each server's slice straight
/// into the fields.
#[derive(Debug, Default)]
pub struct PullBuffer {
    pub(crate) params: Vec<f32>,
    pub(crate) shard_versions: Vec<u64>,
    pub(crate) version: u64,
}

impl PullBuffer {
    /// Creates an empty buffer; the first pull sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pulled flat parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Version of the pulled data: the store's push counter at the start of
    /// the pull, or on a multi-server tier the effective version of the
    /// committed image (the oldest committed shard clock, floored by the
    /// push counter; see [`crate::NetPort::pull_into`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Clock of global shard `shard` observed while that shard was copied.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for the last pulled plane.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.shard_versions[shard]
    }

    /// All per-shard clocks observed during the pull.
    pub fn shard_versions(&self) -> &[u64] {
        &self.shard_versions
    }
}

/// A parameter store sharded across `s` lock-guarded segments, with a global
/// monotonically-increasing version counter and one clock per shard.
///
/// * **ASP** pushes apply to each shard immediately under its own lock; the
///   global version bumps once per push ([`ShardedStore::complete_push`])
///   and each shard's clock bumps once per shard apply. Staleness of a
///   gradient is the number of versions applied between the worker's pull
///   and its push — measured, not modeled, and now measurable per shard.
/// * **BSP** pushes are pre-aggregated by the striped barrier in the engine
///   and applied here stripe-by-stripe as averaged per-shard updates.
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<Mutex<Shard>>,
    /// Shard layout over the flat vector.
    layout: ShardLayout,
    /// Per-shard update clocks, bumped once per shard apply (under that
    /// shard's lock).
    shard_versions: Vec<AtomicU64>,
    version: AtomicU64,
    param_count: usize,
}

impl ShardedStore {
    /// Creates a store over `initial` parameters split into `shards` nearly
    /// equal contiguous shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `initial` is empty.
    pub fn new(initial: &[f32], shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(!initial.is_empty(), "cannot shard zero parameters");
        let layout = ShardLayout::new(initial.len(), shards);
        let storage = layout
            .iter()
            .map(|(offset, len)| Mutex::new(Shard::new(&initial[offset..offset + len])))
            .collect();
        let clocks = (0..layout.len()).map(|_| AtomicU64::new(0)).collect();
        ShardedStore {
            shards: storage,
            shard_versions: clocks,
            version: AtomicU64::new(0),
            param_count: layout.total(),
            layout,
        }
    }

    /// Total number of parameters.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `(offset, len)` of `shard` within the flat parameter vector.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_range(&self, shard: usize) -> (usize, usize) {
        self.layout.range(shard)
    }

    /// Current global version (number of completed pushes).
    pub fn version(&self) -> u64 {
        // Acquire: pairs with the Release bump in `complete_push` so a
        // reader that observes version `k` also observes the parameter
        // writes of those `k` pushes (the shard mutexes order the data for
        // lock-holders; this covers lock-free version reads).
        self.version.load(Ordering::Acquire)
    }

    /// Current clock of `shard` (number of applies to that shard).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_version(&self, shard: usize) -> u64 {
        // Acquire: pairs with the Release bump in `apply_shard_update`, so
        // a lock-free reader that observes clock `k` also observes the
        // parameter writes of those `k` applies.
        self.shard_versions[shard].load(Ordering::Acquire)
    }

    /// Pulls a full copy of the parameters plus the version observed at the
    /// start of the pull.
    ///
    /// Allocates a fresh vector per call; the hot path should prefer
    /// [`ShardedStore::pull_into`] with a reused [`PullBuffer`].
    pub fn pull(&self) -> (Vec<f32>, u64) {
        let mut buf = PullBuffer::new();
        let version = self.pull_into(&mut buf);
        (buf.params, version)
    }

    /// Pulls the parameters into `buf`, reusing its backing storage, and
    /// returns the global version observed at the start of the pull (also
    /// recorded in [`PullBuffer::version`]).
    ///
    /// After the first call on a given store, this performs **zero heap
    /// allocations**: the buffer is resized once and rewritten in place.
    ///
    /// Under ASP, shards are read under their individual locks, so a
    /// concurrent update can interleave mid-pull — the same torn-read
    /// behaviour a real ASP worker sees when pulling from multiple PSs. The
    /// per-shard clocks captured in the buffer record exactly which shard
    /// state was seen, so staleness can later be computed per shard.
    pub fn pull_into(&self, buf: &mut PullBuffer) -> u64 {
        self.pull_runs_into(buf, &[(0, self.param_count)])
    }

    /// [`ShardedStore::pull_into`] for a step that reads only `runs` —
    /// sorted, disjoint `(offset, len)` ranges of the flat vector: copies
    /// just those ranges, leaves every other position of `buf` as it was,
    /// and records the version and **all** shard clocks exactly as a full
    /// pull does (staleness is measured per shard whether or not the step
    /// read it).
    pub fn pull_runs_into(&self, buf: &mut PullBuffer, runs: &[(usize, usize)]) -> u64 {
        // Acquire: see `version` — lets the observed version lower-bound the
        // parameter state read below.
        let version = self.version.load(Ordering::Acquire);
        buf.version = version;
        buf.params.resize(self.param_count, 0.0);
        buf.shard_versions.resize(self.shards.len(), 0);
        let params = &mut buf.params;
        self.read_runs(runs, 0, &mut buf.shard_versions, |at, values| {
            params[at..at + values.len()].copy_from_slice(values);
        });
        version
    }

    /// Applies a momentum-SGD step (`v ← μv − ηg`, `p ← p + v`) to a single
    /// shard. `grad` must be the gradient slice for exactly that shard (see
    /// [`ShardedStore::shard_range`]).
    ///
    /// Bumps the shard's clock and returns the clock value **before** this
    /// apply, so the caller can compute per-shard staleness as
    /// `returned − pulled_shard_version` without any racy separate load.
    ///
    /// Does **not** bump the global version; a logical push that updates
    /// every shard should finish with [`ShardedStore::complete_push`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `grad.len()` differs from the
    /// shard's length.
    pub fn apply_shard_update(&self, shard: usize, grad: &[f32], lr: f64, momentum: f64) -> u64 {
        let (_, len) = self.layout.range(shard);
        assert_eq!(
            grad.len(),
            len,
            "gradient length mismatch for shard {shard}"
        );
        let mu = momentum as f32;
        let eta = lr as f32;
        let mut guard = self.shards[shard].lock();
        let state = &mut *guard;
        state.settle_all();
        state.touched.mark_all();
        for ((p, v), gv) in state
            .params
            .iter_mut()
            .zip(state.velocity.iter_mut())
            .zip(grad)
        {
            *v = mu * *v - eta * gv;
            *p += *v;
        }
        // Release: publishes this apply's parameter writes to lock-free
        // `shard_version` (Acquire) readers; under-lock readers (pull_into)
        // already get the mutex's ordering. The fetch_add return value is
        // what makes per-shard staleness race-free: it is exactly the
        // number of applies that landed before this one.
        self.shard_versions[shard].fetch_add(1, Ordering::Release)
    }

    /// Applies a momentum-SGD step carried as [`UpdateData`] to a single
    /// shard: dense payloads take the [`ShardedStore::apply_shard_update`]
    /// path verbatim; sparse payloads apply the segments and decay the rest
    /// of the blocks they overlap, leaving every other block owing its
    /// decay to the next read, which yields **bit-identical** state to a
    /// dense apply of the same segments scattered into a zero gradient.
    /// Bumps the shard clock once and returns its pre-apply value either
    /// way, so staleness accounting cannot tell the two apart.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, a dense payload's length differs
    /// from the shard's, or a sparse payload's segments are unsorted,
    /// overlapping, out of bounds, or disagree with `rows.len()`.
    pub fn apply_shard_update_data(
        &self,
        shard: usize,
        data: UpdateData<'_>,
        lr: f64,
        momentum: f64,
    ) -> u64 {
        let (indices, rows) = match data {
            UpdateData::Dense(grad) => return self.apply_shard_update(shard, grad, lr, momentum),
            UpdateData::Sparse { indices, rows } => (indices, rows),
        };
        let (_, len) = self.layout.range(shard);
        let mu = momentum as f32;
        let eta = lr as f32;
        let mut guard = self.shards[shard].lock();
        let state = &mut *guard;
        if state.touched.mu.to_bits() != mu.to_bits() {
            state.settle_all();
            state.touched.mu = mu;
        }
        state.touched.now += 1;
        // Prefix/gap/tail elements still take the dense step with gradient
        // zero: `v ← μv − η·0; p ← p + v`. Writing it as `μv` is
        // bit-identical for finite `η` (x − 0.0 == x in IEEE-754). It runs
        // here only inside the blocks a segment overlaps, each first brought
        // up to the step before this one; every other block owes it.
        let mut cursor = 0usize;
        // End of the last block brought up to this step.
        let mut open_end = 0usize;
        let mut row_offset = 0usize;
        for &(start, seg_len) in indices {
            let (start, seg_len) = (start as usize, seg_len as usize);
            assert!(
                start >= cursor && start + seg_len <= len,
                "sparse segment ({start}, {seg_len}) invalid for shard {shard} of {len} \
                 (cursor {cursor})"
            );
            state.decay(cursor..start.min(open_end), mu, 1);
            if seg_len > 0 {
                let blocks = start.max(open_end) / BLOCK..(start + seg_len - 1) / BLOCK + 1;
                state.catch_up(blocks.clone(), state.touched.now - 1);
                state.touched.mark(start, seg_len);
                let head = cursor.max(start / BLOCK * BLOCK).max(open_end);
                state.decay(head..start, mu, 1);
                open_end = (blocks.end * BLOCK).min(len);
            }
            let seg = rows
                .get(row_offset..row_offset + seg_len)
                .expect("sparse rows shorter than the segment lengths");
            for ((p, v), gv) in state.params[start..start + seg_len]
                .iter_mut()
                .zip(&mut state.velocity[start..start + seg_len])
                .zip(seg)
            {
                *v = mu * *v - eta * gv;
                *p += *v;
            }
            cursor = start + seg_len;
            row_offset += seg_len;
        }
        assert_eq!(
            row_offset,
            rows.len(),
            "sparse rows longer than the segment lengths"
        );
        state.decay(cursor..open_end, mu, 1);
        state.touched.lagging = true;
        // Release: same contract as `apply_shard_update`.
        self.shard_versions[shard].fetch_add(1, Ordering::Release)
    }

    /// The store's one read routine: hands `sink` the stored values of
    /// every piece of `runs` — sorted, disjoint `(offset, len)` ranges in
    /// coordinates where this store's first parameter sits at `base`, cut
    /// to the store's extent — shard by shard under that shard's lock, as
    /// `sink(position, values)` in increasing position order, and writes
    /// every shard's clock to `clocks_out`: read under the lock for a shard
    /// that was copied from, so it matches the data exactly, and lock-free
    /// for a shard no run touches. A shard that is read from first settles
    /// the decay it owes (see [`UpdateData`]), so `sink` sees what the
    /// dense loop would have left.
    ///
    /// # Panics
    ///
    /// Panics if `clocks_out.len()` differs from the shard count.
    pub fn read_runs(
        &self,
        runs: &[(usize, usize)],
        base: usize,
        clocks_out: &mut [u64],
        mut sink: impl FnMut(usize, &[f32]),
    ) {
        assert_eq!(
            clocks_out.len(),
            self.shards.len(),
            "clocks length mismatch"
        );
        for (i, (offset, len)) in self.layout.iter().enumerate() {
            let mut pieces = runs_within(runs, base + offset, len).peekable();
            if pieces.peek().is_none() {
                clocks_out[i] = self.shard_version(i);
                continue;
            }
            let mut shard = self.shards[i].lock();
            shard.settle_all();
            for (at, n) in pieces {
                let from = at - base - offset;
                sink(at, &shard.params[from..from + n]);
            }
            // Relaxed: the clock is only bumped (or pinned) under this
            // shard's lock, which we hold.
            clocks_out[i] = self.shard_versions[i].load(Ordering::Relaxed);
        }
    }

    /// Stage-2 commit of one shard: copies this (live) store's parameters
    /// for `shard` into `replica` and pins the replica's shard clock to
    /// this store's, both under both shard locks — this store's first;
    /// nothing takes them in the other order — so the published clock
    /// matches the published data exactly. Returns that clock. Velocity is
    /// not copied (momentum state lives only on the owning store).
    ///
    /// This is where a sparse workload pays the decay its pushes deferred:
    /// the live shard settles what it owes before the replica's lock is
    /// taken, so committed pulls wait only for the copy. Only written
    /// blocks move. `replica` must be a different store, built from the same
    /// initial parameters and written by nothing but this method from this
    /// store: an unwritten block then still holds what both were built
    /// from.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or the replica's shard has a
    /// different length.
    pub(crate) fn commit_shard_to(&self, shard: usize, replica: &ShardedStore) -> u64 {
        let mut live = self.shards[shard].lock();
        live.settle_all();
        let mut committed = replica.shards[shard].lock();
        assert_eq!(
            live.params.len(),
            committed.params.len(),
            "replica layout mismatch for shard {shard}"
        );
        for (a, b) in live.touched.runs(0, live.params.len()) {
            committed.params[a..b].copy_from_slice(&live.params[a..b]);
        }
        // Relaxed load: the clock is only bumped under the live shard's
        // lock, which we hold. Release store: publishes the copy to
        // lock-free `shard_version` readers of the replica; under-lock
        // readers get the mutex's ordering.
        let clock = self.shard_versions[shard].load(Ordering::Relaxed);
        replica.shard_versions[shard].store(clock, Ordering::Release);
        clock
    }

    /// Completes a logical full push: bumps the global version once and
    /// returns the staleness of the push — the number of pushes that
    /// completed between the worker's pull (at `pulled_version`) and this
    /// one. Deriving staleness from the `fetch_add` return value (rather
    /// than a separate load before the applies) makes the measurement
    /// race-free: no concurrent push can slip between the read and the bump.
    pub fn complete_push(&self, pulled_version: u64) -> u64 {
        // Release: pairs with the Acquire loads in `version`/`pull_into`;
        // RMWs form a release sequence, so a pull observing version `k`
        // synchronizes with all `k` completed pushes.
        self.version
            .fetch_add(1, Ordering::Release)
            .saturating_sub(pulled_version)
    }

    /// Applies a full-gradient SGD-momentum update across all shards and
    /// bumps the version once.
    ///
    /// Returns the staleness of the update: pushes completed between the
    /// pull and this push (derived race-free from the version bump itself).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the parameter count.
    pub fn apply_update(&self, grad: &[f32], lr: f64, momentum: f64, pulled_version: u64) -> u64 {
        assert_eq!(grad.len(), self.param_count, "gradient length mismatch");
        for (i, (offset, len)) in self.layout.iter().enumerate() {
            self.apply_shard_update(i, &grad[offset..offset + len], lr, momentum);
        }
        self.complete_push(pulled_version)
    }

    /// Snapshot of the full parameter vector (without a version).
    pub fn snapshot_params(&self) -> Vec<f32> {
        self.pull().0
    }

    /// Copies the current parameters into `out` without allocating — the
    /// building block multi-server snapshots use to assemble each server's
    /// slice in place.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the parameter count.
    pub fn snapshot_params_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.param_count, "output length mismatch");
        for (i, (offset, len)) in self.layout.iter().enumerate() {
            let mut shard = self.shards[i].lock();
            shard.settle_all();
            out[offset..offset + len].copy_from_slice(&shard.params);
        }
    }

    /// Snapshot of the full velocity vector.
    pub fn snapshot_velocity(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.param_count];
        self.snapshot_velocity_into(&mut out);
        out
    }

    /// Copies the current velocity into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the parameter count.
    pub fn snapshot_velocity_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.param_count, "output length mismatch");
        for (i, (offset, len)) in self.layout.iter().enumerate() {
            let mut shard = self.shards[i].lock();
            shard.settle_all();
            out[offset..offset + len].copy_from_slice(&shard.velocity);
        }
    }

    /// Overwrites parameters and velocity from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the parameter count.
    pub fn restore(&self, params: &[f32], velocity: &[f32]) {
        assert_eq!(params.len(), self.param_count, "params length mismatch");
        assert_eq!(velocity.len(), self.param_count, "velocity length mismatch");
        for (i, (offset, len)) in self.layout.iter().enumerate() {
            let mut shard = self.shards[i].lock();
            shard.touched.mark_all();
            shard.params.copy_from_slice(&params[offset..offset + len]);
            shard
                .velocity
                .copy_from_slice(&velocity[offset..offset + len]);
        }
    }

    /// Resets the velocity to zero (momentum-policy changes).
    pub fn reset_velocity(&self) {
        for i in 0..self.shards.len() {
            let mut shard = self.shards[i].lock();
            shard.settle_all();
            shard.velocity.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Whether every stored parameter is finite.
    pub fn is_finite(&self) -> bool {
        for i in 0..self.shards.len() {
            let mut shard = self.shards[i].lock();
            shard.settle_all();
            if !shard.params.iter().all(|p| p.is_finite()) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sharding_covers_all_params() {
        let init: Vec<f32> = (0..103).map(|i| i as f32).collect();
        let store = ShardedStore::new(&init, 8);
        assert_eq!(store.param_count(), 103);
        assert_eq!(store.shard_count(), 8);
        let (pulled, v) = store.pull();
        assert_eq!(pulled, init);
        assert_eq!(v, 0);
        // The layout partitions 0..n exactly.
        let mut expected_offset = 0;
        for i in 0..store.shard_count() {
            let (offset, len) = store.shard_range(i);
            assert_eq!(offset, expected_offset);
            expected_offset += len;
        }
        assert_eq!(expected_offset, 103);
    }

    #[test]
    fn more_shards_than_params_clamps() {
        let store = ShardedStore::new(&[1.0, 2.0], 8);
        assert_eq!(store.shard_count(), 2);
        assert_eq!(store.pull().0, vec![1.0, 2.0]);
    }

    #[test]
    fn update_matches_sgd_momentum() {
        let store = ShardedStore::new(&[1.0, 2.0, 3.0], 2);
        let staleness = store.apply_update(&[1.0, 1.0, 1.0], 0.5, 0.0, 0);
        assert_eq!(staleness, 0);
        assert_eq!(store.pull().0, vec![0.5, 1.5, 2.5]);
        assert_eq!(store.version(), 1);
        // Second update with momentum 0.9: v = -0.5*0.9... velocity carried.
        let store = ShardedStore::new(&[0.0], 1);
        store.apply_update(&[1.0], 0.1, 0.9, 0);
        store.apply_update(&[1.0], 0.1, 0.9, 1);
        let p = store.pull().0[0];
        assert!((p + 0.29).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn staleness_is_versions_behind() {
        let store = ShardedStore::new(&[0.0; 10], 2);
        let (_, v0) = store.pull();
        store.apply_update(&[0.1; 10], 0.1, 0.0, v0); // staleness 0
        store.apply_update(&[0.1; 10], 0.1, 0.0, v0); // now 1 behind
        let s = store.apply_update(&[0.1; 10], 0.1, 0.0, v0);
        assert_eq!(s, 2);
    }

    #[test]
    fn pull_into_reuses_buffer_without_reallocating() {
        let init: Vec<f32> = (0..97).map(|i| i as f32 * 0.5).collect();
        let store = ShardedStore::new(&init, 5);
        let mut buf = PullBuffer::new();
        let v = store.pull_into(&mut buf);
        assert_eq!(v, 0);
        assert_eq!(buf.params(), &init[..]);
        assert_eq!(buf.shard_versions(), &[0; 5]);
        let ptr = buf.params().as_ptr();
        store.apply_update(&vec![1.0; 97], 0.1, 0.0, 0);
        let v = store.pull_into(&mut buf);
        assert_eq!(v, 1);
        // Steady state: same backing allocation, fresh contents.
        assert_eq!(buf.params().as_ptr(), ptr);
        assert_eq!(buf.params(), &store.pull().0[..]);
        assert_eq!(buf.shard_versions(), &[1; 5]);
        assert_eq!(buf.version(), 1);
    }

    #[test]
    fn shard_updates_compose_into_full_push() {
        let init = vec![1.0f32; 10];
        let full = ShardedStore::new(&init, 3);
        let sharded = ShardedStore::new(&init, 3);
        let grad: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        full.apply_update(&grad, 0.2, 0.9, 0);
        for i in 0..sharded.shard_count() {
            let (offset, len) = sharded.shard_range(i);
            let prev = sharded.apply_shard_update(i, &grad[offset..offset + len], 0.2, 0.9);
            assert_eq!(prev, 0);
            assert_eq!(sharded.shard_version(i), 1);
        }
        let staleness = sharded.complete_push(0);
        assert_eq!(staleness, 0);
        assert_eq!(sharded.version(), 1);
        assert_eq!(full.snapshot_params(), sharded.snapshot_params());
        assert_eq!(full.snapshot_velocity(), sharded.snapshot_velocity());
    }

    #[test]
    fn per_shard_clocks_track_applies() {
        let store = ShardedStore::new(&[0.0; 8], 4);
        let (offset, len) = store.shard_range(2);
        assert_eq!((offset, len), (4, 2));
        let prev = store.apply_shard_update(2, &[1.0; 2], 0.1, 0.0);
        assert_eq!(prev, 0);
        let prev = store.apply_shard_update(2, &[1.0; 2], 0.1, 0.0);
        assert_eq!(prev, 1);
        assert_eq!(store.shard_version(2), 2);
        // Untouched shards keep clock 0, and the global version only moves
        // on complete_push.
        assert_eq!(store.shard_version(0), 0);
        assert_eq!(store.version(), 0);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let store = ShardedStore::new(&[1.0, 2.0, 3.0, 4.0], 3);
        store.apply_update(&[1.0; 4], 0.1, 0.9, 0);
        let p = store.snapshot_params();
        let v = store.snapshot_velocity();
        store.apply_update(&[5.0; 4], 0.1, 0.9, 1);
        assert_ne!(store.snapshot_params(), p);
        store.restore(&p, &v);
        assert_eq!(store.snapshot_params(), p);
        assert_eq!(store.snapshot_velocity(), v);
    }

    #[test]
    fn concurrent_asp_updates_all_land() {
        let store = Arc::new(ShardedStore::new(&vec![0.0f32; 64], 4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let (_, v) = store.pull();
                        store.apply_update(&vec![1.0f32; 64], 0.001, 0.0, v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.version(), 400);
        for i in 0..store.shard_count() {
            assert_eq!(store.shard_version(i), 400);
        }
        // With lr 0.001 and 400 unit gradients every parameter moved by -0.4.
        for p in store.snapshot_params() {
            assert!((p + 0.4).abs() < 1e-4, "p = {p}");
        }
    }

    #[test]
    fn concurrent_pull_into_matches_fresh_pull() {
        // Pushers hammer the store while a reader reuses one buffer; every
        // intermediate read must be shaped right, and once quiescent the
        // reused buffer must match a fresh pull exactly.
        let store = Arc::new(ShardedStore::new(&vec![0.0f32; 256], 8));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pushers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let (_, v) = store.pull();
                        store.apply_update(&vec![0.01f32; 256], 0.001, 0.0, v);
                    }
                })
            })
            .collect();
        let reader = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = PullBuffer::new();
                let mut pulls = 0u64;
                // At least one pull, even if the pushers finish before this
                // thread is first scheduled.
                while pulls == 0 || !stop.load(Ordering::Relaxed) {
                    let v = store.pull_into(&mut buf);
                    assert_eq!(buf.params().len(), 256);
                    assert_eq!(buf.version(), v);
                    assert!(buf.params().iter().all(|p| p.is_finite()));
                    // Shard clocks never run behind the global version
                    // observed before the shard copies.
                    for &sv in buf.shard_versions() {
                        assert!(sv >= v, "shard clock {sv} behind global {v}");
                    }
                    pulls += 1;
                }
                (buf, pulls)
            })
        };
        for t in pushers {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let (mut buf, pulls) = reader.join().unwrap();
        assert!(pulls > 0, "reader never pulled");
        // Quiescent: the reused buffer and a fresh pull agree bit-for-bit.
        let ptr = buf.params().as_ptr();
        let version = store.pull_into(&mut buf);
        let (fresh, fresh_version) = store.pull();
        assert_eq!(version, fresh_version);
        assert_eq!(version, 600);
        assert_eq!(buf.params(), &fresh[..]);
        assert_eq!(buf.params().as_ptr(), ptr, "steady-state pull reallocated");
    }

    #[test]
    fn shard_layout_is_self_similar() {
        // Re-partitioning a contiguous run of shards' combined extent must
        // reproduce the global interior boundaries — the property PsServer
        // relies on to align its local stores with the global layout.
        for (n, shards, servers) in [(103, 8, 3), (11, 3, 2), (64, 7, 4), (9, 9, 5)] {
            let global = ShardLayout::new(n, shards);
            let ownership = ShardLayout::new(global.len(), servers);
            for s in 0..ownership.len() {
                let (first, count) = ownership.range(s);
                let param_offset = global.range(first).0;
                let extent: usize = (first..first + count).map(|g| global.range(g).1).sum();
                let local = ShardLayout::new(extent, count);
                for k in 0..count {
                    let (lo, ll) = local.range(k);
                    let (go, gl) = global.range(first + k);
                    assert_eq!(
                        param_offset + lo,
                        go,
                        "boundary drift at {n}/{shards}/{servers}"
                    );
                    assert_eq!(ll, gl);
                }
            }
        }
    }

    #[test]
    fn commit_publishes_one_shard_with_its_clock() {
        let init: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let owner = ShardedStore::new(&init, 3);
        let replica = ShardedStore::new(&init, 3);
        // Owner takes two applies on shard 1; replica lags.
        let (offset, len) = owner.shard_range(1);
        owner.apply_shard_update(1, &vec![1.0; len], 0.1, 0.0);
        owner.apply_shard_update(1, &vec![1.0; len], 0.1, 0.0);
        assert_eq!(owner.commit_shard_to(1, &replica), 2);
        assert_eq!(replica.shard_version(1), 2);
        let owner_params = owner.snapshot_params();
        let replica_params = replica.snapshot_params();
        assert_eq!(
            &owner_params[offset..offset + len],
            &replica_params[offset..offset + len]
        );
        // Uncommitted shards keep their initial contents and clock 0.
        assert_eq!(&replica_params[..offset], &init[..offset]);
        assert_eq!(replica.shard_version(0), 0);
    }

    #[test]
    fn touched_runs_follow_the_marks_and_collapse_when_full() {
        // 3 full blocks and a 10-element tail.
        let len = 3 * BLOCK + 10;
        let mut t = Touched::new(len);
        let runs = |t: &Touched, from, to| t.runs(from, to).collect::<Vec<_>>();
        assert!(runs(&t, 0, len).is_empty());
        // A segment straddling the end of block 0 marks blocks 0 and 1.
        t.mark(BLOCK - 1, 2);
        assert_eq!(runs(&t, 0, len), [(0, 2 * BLOCK)]);
        // Ranges are cut to what was asked for, at either end.
        assert_eq!(runs(&t, 5, BLOCK + 7), [(5, BLOCK + 7)]);
        assert!(runs(&t, 2 * BLOCK, len).is_empty());
        assert!(runs(&t, 7, 7).is_empty());
        // An empty segment marks nothing; the short tail block is a block.
        t.mark(len - 1, 0);
        t.mark(len - 1, 1);
        assert_eq!(runs(&t, 0, len), [(0, 2 * BLOCK), (3 * BLOCK, len)]);
        assert_eq!(t.unmarked, 1);
        // Fully marked: one run, whatever the range, and it stays that way.
        t.mark(2 * BLOCK, 1);
        assert_eq!(t.unmarked, 0);
        assert_eq!(runs(&t, 3, len - 1), [(3, len - 1)]);
        let mut all = Touched::new(len);
        all.mark_all();
        assert_eq!(runs(&all, 0, len), [(0, len)]);
    }

    #[test]
    fn negative_zero_in_a_never_written_block_keeps_its_sign() {
        // The one place the sparse walk and the dense loop differ in bits.
        let mut init = vec![1.0f32; 2 * BLOCK];
        init[BLOCK] = -0.0;
        let (sparse, dense) = (ShardedStore::new(&init, 1), ShardedStore::new(&init, 1));
        let data = UpdateData::Sparse {
            indices: &[(0, 1)],
            rows: &[1.0],
        };
        sparse.apply_shard_update_data(0, data, 0.1, 0.9);
        let mut grad = vec![0.0f32; 2 * BLOCK];
        grad[0] = 1.0;
        dense.apply_shard_update(0, &grad, 0.1, 0.9);
        let (s, d) = (sparse.snapshot_params(), dense.snapshot_params());
        assert_eq!(s, d);
        assert_eq!(s[BLOCK].to_bits(), (-0.0f32).to_bits());
        assert_eq!(d[BLOCK].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn sparse_update_equals_scattered_dense_update() {
        let init: Vec<f32> = (0..12).map(|i| (i as f32 * 0.3).sin()).collect();
        let dense_store = ShardedStore::new(&init, 3);
        let sparse_store = ShardedStore::new(&init, 3);
        // Two pushes so momentum state (incl. decay of untouched entries)
        // is exercised, not just the first step.
        for push in 0..2u64 {
            for shard in 0..3 {
                let (_, len) = dense_store.shard_range(shard);
                // Touch the first and last element of every shard.
                let mut grad = vec![0.0f32; len];
                grad[0] = 1.0 + push as f32;
                grad[len - 1] = -0.5;
                let indices = [(0u32, 1u32), ((len - 1) as u32, 1u32)];
                let rows = [grad[0], grad[len - 1]];
                let a = dense_store.apply_shard_update(shard, &grad, 0.1, 0.9);
                let b = sparse_store.apply_shard_update_data(
                    shard,
                    UpdateData::Sparse {
                        indices: &indices,
                        rows: &rows,
                    },
                    0.1,
                    0.9,
                );
                assert_eq!(a, b, "clock skew at push {push} shard {shard}");
            }
            assert_eq!(
                dense_store.complete_push(push),
                sparse_store.complete_push(push)
            );
        }
        assert_eq!(
            dense_store.snapshot_params(),
            sparse_store.snapshot_params()
        );
        assert_eq!(
            dense_store.snapshot_velocity(),
            sparse_store.snapshot_velocity()
        );
    }

    #[test]
    fn sparse_update_with_no_segments_still_decays_and_ticks() {
        let store = ShardedStore::new(&[1.0, 1.0], 1);
        store.apply_shard_update(0, &[1.0, 1.0], 0.5, 0.5);
        let prev = store.apply_shard_update_data(
            0,
            UpdateData::Sparse {
                indices: &[],
                rows: &[],
            },
            0.5,
            0.5,
        );
        assert_eq!(prev, 1);
        assert_eq!(store.shard_version(0), 2);
        // v was -0.5; empty push decays it to -0.25 and applies it.
        let reference = ShardedStore::new(&[1.0, 1.0], 1);
        reference.apply_shard_update(0, &[1.0, 1.0], 0.5, 0.5);
        reference.apply_shard_update(0, &[0.0, 0.0], 0.5, 0.5);
        assert_eq!(store.snapshot_params(), reference.snapshot_params());
        assert_eq!(store.snapshot_velocity(), reference.snapshot_velocity());
    }

    #[test]
    #[should_panic(expected = "sparse segment")]
    fn overlapping_sparse_segments_panic() {
        let store = ShardedStore::new(&[0.0; 8], 1);
        store.apply_shard_update_data(
            0,
            UpdateData::Sparse {
                indices: &[(0, 3), (2, 2)],
                rows: &[1.0; 5],
            },
            0.1,
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "sparse rows longer")]
    fn oversized_sparse_rows_panic() {
        let store = ShardedStore::new(&[0.0; 8], 1);
        store.apply_shard_update_data(
            0,
            UpdateData::Sparse {
                indices: &[(0, 2)],
                rows: &[1.0; 3],
            },
            0.1,
            0.0,
        );
    }

    #[test]
    fn finiteness_detection() {
        let store = ShardedStore::new(&[1.0, 2.0], 1);
        assert!(store.is_finite());
        store.apply_update(&[f32::INFINITY, 0.0], 1.0, 0.0, 0);
        assert!(!store.is_finite());
    }
}
