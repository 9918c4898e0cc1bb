//! The PS wire protocol: a compact binary codec for every request a worker
//! (or the control plane) can make of a [`crate::PsServer`], plus the
//! length-prefixed framing both transport backends speak.
//!
//! Layout is little-endian throughout. A frame on a byte stream is
//!
//! ```text
//! [u32 payload_len][payload]
//! ```
//!
//! and a payload is `[u8 opcode][body]`. Floats are carried as raw IEEE-754
//! bits (`to_le_bytes`), so encode→decode→encode is byte-exact even for
//! NaNs — the codec never reinterprets gradients, it only moves them.
//!
//! There is one codec: per message, a streaming encoder that appends the
//! payload to the caller's buffer, and a decoder that reads it into the
//! caller's reused buffers — what [`crate::transport::NetRouter`] and the
//! server endpoints run (allocation-free), and what the tests round-trip.

use std::fmt;

use sync_switch_telemetry::{HistogramSnapshot, ServerStatsSnapshot, HIST_BUCKETS, OPCODE_SLOTS};

/// Frames larger than this are rejected when reading from a stream — a
/// corrupted length prefix must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Version byte of the [`op::SEQUENCED`] wrapper header. Bumped if the
/// sequencing header layout ever changes; a server seeing a newer version
/// rejects the frame with [`WireError::BadVersion`] instead of misparsing.
pub const SEQ_WIRE_VERSION: u8 = 1;

/// Decode/framing errors. These indicate protocol corruption (or a version
/// skew that cannot happen in-process), never ordinary data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The first payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// Bytes remained after the last field of the message.
    TrailingBytes(usize),
    /// A frame length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// The reply opcode did not match the request that was sent.
    UnexpectedReply(u8),
    /// A sequencing header carried an unsupported version byte.
    BadVersion(u8),
    /// A [`op::BATCH`] item carried an opcode that may not ride in a batch
    /// (`BATCH` itself, `SEQUENCED`, `SHUTDOWN`).
    NotBatchable(u8),
    /// Run number `.0` of a [`op::PULL_COMMITTED`] body is empty, starts
    /// before the previous run ends, or reaches past the server's slice.
    BadRun(u32),
    /// A well-framed request with opcode `.0` does not fit the server's
    /// slice (see [`check_push`]).
    Misfit(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_BYTES}"),
            WireError::UnexpectedReply(op) => write!(f, "unexpected reply opcode {op:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported sequencing header version {v}"),
            WireError::NotBatchable(op) => write!(f, "opcode {op:#04x} may not ride in a batch"),
            WireError::BadRun(i) => {
                write!(f, "pull run {i} is empty, out of order or out of range")
            }
            WireError::Misfit(op) => write!(f, "request {op:#04x} does not fit the server"),
        }
    }
}

impl std::error::Error for WireError {}

/// Request opcodes (`0x01..`). Replies live in `0x81..` so a frame's first
/// byte always identifies its direction.
pub mod op {
    /// Stage-1 apply of one shard's gradient on the owning server.
    pub const PUSH_SHARD: u8 = 0x01;
    /// Pull runs of the committed view: the body `[u32 k][k × (u32 start,
    /// u32 len)]` names them (server-local offsets, non-empty, ascending,
    /// disjoint; `k` may be 0), and a bodyless frame is the compact
    /// encoding of the one run of the whole slice. The reply always
    /// carries every owned shard's committed clock.
    pub const PULL_COMMITTED: u8 = 0x02;
    /// Stage-2 reconciliation: a server's periodic commit of every owned
    /// shard's live state. Not a request — a server commits on its own
    /// every `sync_every` requests that carry pushes — but the opcode its
    /// accounting books those commits under.
    pub const SYNC_ROUND: u8 = 0x03;
    /// Unconditional commit-all (BSP barriers, switches, restore).
    pub const DRAIN: u8 = 0x04;
    /// Snapshot the live parameters or velocity.
    pub const SNAPSHOT: u8 = 0x05;
    /// Overwrite live parameters and velocity from a checkpoint.
    pub const RESTORE: u8 = 0x06;
    /// Zero the live velocity.
    pub const RESET_VELOCITY: u8 = 0x07;
    /// Ask whether every live parameter is finite.
    pub const CHECK_FINITE: u8 = 0x08;
    /// Terminate the server's event loop / connection handler.
    pub const SHUTDOWN: u8 = 0x09;
    /// Stage-1 apply of a *sparse* gradient — only the touched segments of
    /// the shard travel, the ASP payload saver for embedding workloads.
    pub const PUSH_SHARD_SPARSE: u8 = 0x0a;
    /// Wrapper for idempotent re-send: the body is
    /// `[u8 version][u64 client][u32 seq][inner request payload]`. The
    /// server deduplicates on `(client, seq)` and replays the cached reply
    /// for a duplicate, so a retried mutating request is applied at most
    /// once (see [`crate::transport::ServerEndpoint`]).
    pub const SEQUENCED: u8 = 0x0b;
    /// Readiness/identity probe: "who are you, and what do you own?". A
    /// bodyless request; the reply is [`INFO`]. Sent by workers to wait for
    /// a server to come up, to validate a cluster spec, and to detect a
    /// *respawned* server (its nonce changes).
    pub const HELLO: u8 = 0x0c;
    /// Telemetry scrape: "hand over your request/apply accounting". A
    /// bodyless request; the reply is [`STATS_DATA`]. Sent by
    /// [`crate::transport::NetRouter::scrape_stats`] — from the
    /// `ps-worker` binary, the controller, or any live monitor — without
    /// perturbing the serving path beyond one cheap atomic snapshot.
    pub const STATS: u8 = 0x0d;
    /// Several requests to one server in one frame: the body is
    /// `[u16 n]` then `n × [u32 len][inner request payload]`, executed in
    /// order; the reply is [`BATCH_REPLY`] with the inner replies in the
    /// same order. How a worker's stage-1 pushes to one server share a
    /// round trip. Items may be any request except `BATCH`, [`SEQUENCED`]
    /// and [`SHUTDOWN`]; a [`SEQUENCED`] wrapper goes *around* the batch,
    /// once, so a re-sent batch replays its cached batch reply.
    pub const BATCH: u8 = 0x0e;

    /// Reply to [`PUSH_SHARD`]: the pre-apply shard clock.
    pub const PUSH_ACK: u8 = 0x81;
    /// Reply to [`PULL_COMMITTED`]: the owned params — or, to a pull with
    /// a run list, the runs' values concatenated in order — then the
    /// committed clocks.
    pub const PULLED: u8 = 0x82;
    /// A commit: `[u64 epoch]`, the server's commit epoch after it. The
    /// reply to [`DRAIN`], and the item a server puts after the acks of a
    /// request whose pushes made a periodic commit due (a bare push's reply
    /// then becomes a [`BATCH_REPLY`]).
    pub const SYNCED: u8 = 0x83;
    /// Reply to [`SNAPSHOT`]: the requested vector.
    pub const SNAPSHOT_DATA: u8 = 0x84;
    /// Generic success reply ([`RESTORE`], [`RESET_VELOCITY`]).
    pub const OK: u8 = 0x85;
    /// Reply to [`CHECK_FINITE`].
    pub const FINITE: u8 = 0x86;
    /// Reply to [`HELLO`]: the server's identity and owned slice.
    pub const INFO: u8 = 0x87;
    /// Reply to [`STATS`]: the server's stats snapshot.
    pub const STATS_DATA: u8 = 0x88;
    /// Reply to [`BATCH`]: `[u16 n]` then `n × [u32 len][inner reply]`.
    pub const BATCH_REPLY: u8 = 0x89;
}

/// A server's self-description, returned in reply to [`op::HELLO`].
///
/// Workers use it as the readiness handshake (a reply at all means the
/// listener is up and serving) and to cross-check the cluster spec against
/// what the server actually owns; the same handshake uses `nonce` to tell a
/// *respawned* server (fresh store, needs a checkpoint restore) from one
/// that merely dropped a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Instance nonce: unique per constructed `PsServer`, across processes.
    /// A changed nonce at the same address means the process was restarted.
    pub nonce: u64,
    /// The server's index in the tier.
    pub server: u32,
    /// First global shard index this server owns.
    pub first_shard: u32,
    /// Number of consecutive shards owned.
    pub shard_count: u32,
    /// First flat-parameter index of the owned slice.
    pub param_offset: u64,
    /// Length of the owned flat-parameter slice.
    pub param_len: u64,
    /// Stage-2 period, in requests that carry pushes.
    pub sync_every: u64,
}

/// The fields every party of a tier must agree on, nonce aside, as the
/// tuple `(server, first_shard, shard_count, param_offset, param_len,
/// sync_every)`.
impl fmt::Display for ServerInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {}, {}, {})",
            self.server,
            self.first_shard,
            self.shard_count,
            self.param_offset,
            self.param_len,
            self.sync_every
        )
    }
}

// ---------------------------------------------------------------- encoding

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    put_u32(buf, vs.len() as u32);
    put_f32_values(buf, vs);
}

/// Appends `vs` with no length prefix: the body of a length-prefixed run,
/// or the next piece of a reply opened by [`begin_pulled`]. On a
/// little-endian host that is one copy of `vs`' memory: in a debug build a
/// per-value loop cost more than the rest of a round trip.
pub fn put_f32_values(buf: &mut Vec<u8>, vs: &[f32]) {
    if cfg!(target_endian = "little") {
        // SAFETY: an `f32` is 4 initialised bytes with no padding and `u8`
        // needs no alignment, so this views `vs`' own memory, all of it and
        // only it, as bytes: on a little-endian host each value's
        // `to_le_bytes` in turn.
        let bytes = unsafe {
            std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
        };
        buf.extend_from_slice(bytes);
    } else {
        buf.reserve(std::mem::size_of_val(vs));
        for v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Fills `out` from `bytes`, 4 little-endian bytes a value: the decoding
/// half of [`put_f32_values`], one copy on a little-endian host.
fn f32s_from_le(out: &mut [f32], bytes: &[u8]) {
    assert_eq!(bytes.len(), std::mem::size_of_val(out), "4 bytes a value");
    if cfg!(target_endian = "little") {
        // SAFETY: as in `put_f32_values`, this views `out`'s own memory as
        // bytes, under the exclusive borrow `out` hands on; any 4 bytes are
        // a valid `f32`.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
    } else {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes(c.try_into().unwrap());
        }
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, vs.len() as u32);
    buf.reserve(vs.len() * 8);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a `PushShard` payload to `buf` without intermediate allocation.
pub fn encode_push_shard(buf: &mut Vec<u8>, shard: u32, lr: f64, momentum: f64, grad: &[f32]) {
    buf.push(op::PUSH_SHARD);
    put_u32(buf, shard);
    put_f64(buf, lr);
    put_f64(buf, momentum);
    put_f32s(buf, grad);
}

/// Appends a `PushShardSparse` payload to `buf` without intermediate
/// allocation: `[shard][lr][momentum][n_segments][(start, len)…][values]`.
pub fn encode_push_shard_sparse(
    buf: &mut Vec<u8>,
    shard: u32,
    lr: f64,
    momentum: f64,
    indices: &[(u32, u32)],
    rows: &[f32],
) {
    buf.push(op::PUSH_SHARD_SPARSE);
    put_u32(buf, shard);
    put_f64(buf, lr);
    put_f64(buf, momentum);
    put_u32(buf, indices.len() as u32);
    buf.reserve(indices.len() * 8);
    for &(start, len) in indices {
        put_u32(buf, start);
        put_u32(buf, len);
    }
    put_f32s(buf, rows);
}

/// Appends a bodyless payload: a request (`PullCommitted`, `Drain`,
/// `ResetVelocity`, `CheckFinite`, `Hello`, `Stats`, `Shutdown`) or the
/// reply `Ok`.
pub fn encode_bodyless(buf: &mut Vec<u8>, opcode: u8) {
    buf.push(opcode);
}

/// Appends a one-flag payload `[opcode][u8 flag]`: a `Snapshot` request
/// (set: of the velocity) or a `Finite` reply.
pub fn encode_flag(buf: &mut Vec<u8>, opcode: u8, flag: bool) {
    buf.push(opcode);
    buf.push(u8::from(flag));
}

/// Appends a `PullCommitted` payload that asks for `runs` only — the
/// opcode, then `[u32 k][k × (u32 start, u32 len)]`. Offsets are local to
/// the server's slice; the runs must be non-empty, ascending and disjoint
/// (the server rejects anything else). No runs is a valid request: the
/// reply then carries just the clocks.
pub fn encode_pull_runs(buf: &mut Vec<u8>, runs: impl Iterator<Item = (usize, usize)>) {
    buf.push(op::PULL_COMMITTED);
    let count_at = buf.len();
    put_u32(buf, 0);
    let mut k = 0u32;
    let mut floor = 0;
    for (start, len) in runs {
        debug_assert!(
            len > 0 && start >= floor,
            "pull run ({start}, {len}) is empty or not past {floor}"
        );
        floor = start + len;
        put_u32(buf, start as u32);
        put_u32(buf, len as u32);
        k += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&k.to_le_bytes());
}

/// Appends a `Pulled` reply payload directly from the server's slices.
pub fn encode_pulled(buf: &mut Vec<u8>, params: &[f32], clocks: &[u64]) {
    begin_pulled(buf, params.len());
    put_f32_values(buf, params);
    finish_pulled(buf, clocks);
}

/// Starts a `Pulled` reply that will carry `n_values` parameters. The
/// caller appends them, in as many pieces as it reads them in, with
/// [`put_f32_values`] and closes the reply with [`finish_pulled`] — so a
/// run pull is encoded straight out of the store, never assembled first.
pub fn begin_pulled(buf: &mut Vec<u8>, n_values: usize) {
    buf.push(op::PULLED);
    put_u32(buf, n_values as u32);
    buf.reserve(n_values * 4);
}

/// Closes a reply opened by [`begin_pulled`] with the shard clocks.
pub fn finish_pulled(buf: &mut Vec<u8>, clocks: &[u64]) {
    put_u64s(buf, clocks);
}

/// Appends a `PushAck` reply payload.
pub fn encode_push_ack(buf: &mut Vec<u8>, prev_clock: u64) {
    buf.push(op::PUSH_ACK);
    put_u64(buf, prev_clock);
}

/// Appends a `Synced` reply payload: the commit epoch after the commit.
pub fn encode_synced(buf: &mut Vec<u8>, epoch: u64) {
    buf.push(op::SYNCED);
    put_u64(buf, epoch);
}

/// Appends a `SnapshotData` reply payload.
pub fn encode_snapshot_data(buf: &mut Vec<u8>, data: &[f32]) {
    buf.push(op::SNAPSHOT_DATA);
    put_f32s(buf, data);
}

/// Appends a `Restore` request payload directly from checkpoint slices.
pub fn encode_restore(buf: &mut Vec<u8>, params: &[f32], velocity: &[f32]) {
    buf.push(op::RESTORE);
    put_f32s(buf, params);
    put_f32s(buf, velocity);
}

/// Appends an `Info` reply payload.
pub fn encode_server_info(buf: &mut Vec<u8>, info: &ServerInfo) {
    buf.push(op::INFO);
    put_u64(buf, info.nonce);
    put_u32(buf, info.server);
    put_u32(buf, info.first_shard);
    put_u32(buf, info.shard_count);
    put_u64(buf, info.param_offset);
    put_u64(buf, info.param_len);
    put_u64(buf, info.sync_every);
}

/// Decodes an `Info` reply payload.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Info`.
pub fn decode_server_info(payload: &[u8]) -> Result<ServerInfo, WireError> {
    let mut c = Cursor::open(payload, op::INFO)?;
    let info = ServerInfo {
        nonce: c.u64()?,
        server: c.u32()?,
        first_shard: c.u32()?,
        shard_count: c.u32()?,
        param_offset: c.u64()?,
        param_len: c.u64()?,
        sync_every: c.u64()?,
    };
    c.finish()?;
    Ok(info)
}

/// Appends a `Stats` reply payload: the stats snapshot in fixed order —
/// `[server][requests][bytes_in][bytes_out][dedup_hits]` followed by the
/// apply histogram (`[count][sum][max][buckets]`) and the per-shard apply
/// vectors. Every vector is length-prefixed, but the decoder pins the
/// fixed-size ones ([`OPCODE_SLOTS`] request slots, [`HIST_BUCKETS`]
/// buckets) so a version-skewed peer fails loudly instead of misparsing.
pub fn encode_stats_snapshot(buf: &mut Vec<u8>, stats: &ServerStatsSnapshot) {
    buf.push(op::STATS_DATA);
    put_u32(buf, stats.server);
    put_u64s(buf, &stats.requests);
    put_u64(buf, stats.bytes_in);
    put_u64(buf, stats.bytes_out);
    put_u64(buf, stats.dedup_hits);
    put_u64(buf, stats.apply_ns.count);
    put_u64(buf, stats.apply_ns.sum);
    put_u64(buf, stats.apply_ns.max);
    put_u64s(buf, &stats.apply_ns.buckets);
    put_u64s(buf, &stats.shard_apply_ns);
    put_u64s(buf, &stats.shard_applies);
}

/// Decodes a `Stats` reply payload.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Stats`
/// reply: truncated, trailing bytes, a request-slot or bucket vector of
/// the wrong fixed size, or per-shard vectors of differing lengths.
pub fn decode_stats_snapshot(payload: &[u8]) -> Result<ServerStatsSnapshot, WireError> {
    fn u64_vec(c: &mut Cursor<'_>) -> Result<Vec<u64>, WireError> {
        let n = c.u32()? as usize;
        let bytes = c.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }
    let mut c = Cursor::open(payload, op::STATS_DATA)?;
    let server = c.u32()?;
    let requests = u64_vec(&mut c)?;
    if requests.len() != OPCODE_SLOTS {
        return Err(WireError::Truncated);
    }
    let bytes_in = c.u64()?;
    let bytes_out = c.u64()?;
    let dedup_hits = c.u64()?;
    let count = c.u64()?;
    let sum = c.u64()?;
    let max = c.u64()?;
    let buckets = u64_vec(&mut c)?;
    if buckets.len() != HIST_BUCKETS {
        return Err(WireError::Truncated);
    }
    let shard_apply_ns = u64_vec(&mut c)?;
    let shard_applies = u64_vec(&mut c)?;
    if shard_apply_ns.len() != shard_applies.len() {
        return Err(WireError::Truncated);
    }
    c.finish()?;
    Ok(ServerStatsSnapshot {
        server,
        requests,
        bytes_in,
        bytes_out,
        dedup_hits,
        apply_ns: HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        },
        shard_apply_ns,
        shard_applies,
    })
}

/// Appends the [`op::SEQUENCED`] wrapper header; the caller encodes the
/// inner request payload immediately after it. `client` identifies the
/// sending connection-slot process-wide; `seq` is its per-slot request
/// sequence number, re-used verbatim when the request is re-sent.
pub fn encode_sequenced_prefix(buf: &mut Vec<u8>, client: u64, seq: u32) {
    buf.push(op::SEQUENCED);
    buf.push(SEQ_WIRE_VERSION);
    put_u64(buf, client);
    put_u32(buf, seq);
}

/// Splits a [`op::SEQUENCED`] payload into `(client, seq, inner payload)`.
///
/// The inner payload is *not* validated here — it is handed to the normal
/// request dispatch, which performs its own decoding.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a sequenced wrapper, the
/// version byte is unsupported, or the header is truncated.
pub fn decode_sequenced_prefix(payload: &[u8]) -> Result<(u64, u32, &[u8]), WireError> {
    let mut c = Cursor::open(payload, op::SEQUENCED)?;
    match c.u8()? {
        SEQ_WIRE_VERSION => {}
        v => return Err(WireError::BadVersion(v)),
    }
    let client = c.u64()?;
    let seq = c.u32()?;
    // No `finish()`: everything after the header is the inner request.
    Ok((client, seq, &payload[c.pos..]))
}

/// Bytes of a batch header, `[opcode][u16 n]`; the first item's length
/// prefix follows it.
pub const BATCH_HEADER_BYTES: usize = 3;

/// Starts a batch payload (`opcode` is [`op::BATCH`] or
/// [`op::BATCH_REPLY`]) at the end of `buf`: `[opcode][u16 0]`. Returns the
/// batch's start offset, which [`close_batch_item`] needs to bump the count.
pub fn begin_batch(buf: &mut Vec<u8>, opcode: u8) -> usize {
    let head = buf.len();
    buf.push(opcode);
    buf.extend_from_slice(&[0u8; 2]);
    head
}

/// Reserves the next item's length prefix; the caller encodes the item's
/// payload straight after it and then calls [`close_batch_item`] with the
/// returned mark. Encode-in-place: an item is never assembled elsewhere
/// and copied in.
pub fn open_batch_item(buf: &mut Vec<u8>) -> usize {
    let mark = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    mark
}

/// Patches the length prefix reserved at `mark` and counts the item in the
/// header of the batch that starts at `head`.
///
/// # Panics
///
/// Panics if the batch already holds `u16::MAX` items (senders flush
/// before that) or `head`/`mark` do not come from [`begin_batch`] /
/// [`open_batch_item`] on this buffer.
pub fn close_batch_item(buf: &mut [u8], head: usize, mark: usize) {
    patch_frame_len(&mut buf[mark..]);
    let count = &mut buf[head + 1..head + BATCH_HEADER_BYTES];
    let n = u16::from_le_bytes([count[0], count[1]])
        .checked_add(1)
        .expect("batch item count overflows u16");
    count.copy_from_slice(&n.to_le_bytes());
}

/// Bytes [`put_bodyless_item`] appends: the length prefix and the opcode.
pub const BODYLESS_ITEM_BYTES: usize = 5;

/// Appends the bodyless request `opcode` as the next item of the batch that
/// starts at `head` — how a `PullCommitted` joins the pushes, or the sync
/// round, a worker already sends to a server.
pub fn put_bodyless_item(buf: &mut Vec<u8>, head: usize, opcode: u8) {
    let mark = open_batch_item(buf);
    encode_bodyless(buf, opcode);
    close_batch_item(buf, head, mark);
}

/// The item payloads of a batch whose framing was checked up front by
/// [`batch_items`], so iteration cannot fail.
#[derive(Debug, Clone)]
pub struct BatchItems<'a> {
    /// The unread `[u32 len][payload]` records.
    rest: &'a [u8],
}

impl<'a> Iterator for BatchItems<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (len, rest) = self.rest.split_first_chunk::<4>()?;
        let (item, rest) = rest.split_at(u32::from_le_bytes(*len) as usize);
        self.rest = rest;
        Some(item)
    }
}

/// Checks the whole framing of a batch payload — the opcode is `opcode`,
/// the count is non-zero and matches the records present, no record is
/// empty or runs past the end, nothing trails the last one — and returns an
/// iterator over the item payloads. In a request batch ([`op::BATCH`]) no
/// item may start with `BATCH`, `SEQUENCED` or `SHUTDOWN`. Nothing is
/// executed or decoded here, so a malformed batch is rejected before its
/// first item is applied.
///
/// # Errors
///
/// Returns a [`WireError`] on any of the above.
pub fn batch_items(payload: &[u8], opcode: u8) -> Result<BatchItems<'_>, WireError> {
    let mut c = Cursor::open(payload, opcode)?;
    let n = u16::from_le_bytes(c.take(2)?.try_into().unwrap());
    if n == 0 {
        return Err(WireError::Truncated);
    }
    let rest = &payload[c.pos..];
    for _ in 0..n {
        let len = c.u32()? as usize;
        let item = c.take(len)?;
        let inner = *item.first().ok_or(WireError::Truncated)?;
        if opcode == op::BATCH && matches!(inner, op::BATCH | op::SEQUENCED | op::SHUTDOWN) {
            return Err(WireError::NotBatchable(inner));
        }
    }
    c.finish()?;
    Ok(BatchItems { rest })
}

// ---------------------------------------------------------------- decoding

/// A cursor over a payload; every getter checks bounds.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor past the opcode of `bytes`, which must be `opcode`. Any
    /// other is an [`WireError::UnknownOpcode`] where a request was
    /// expected and an [`WireError::UnexpectedReply`] where a reply was —
    /// the expected opcode's high bit says which.
    fn open(bytes: &'a [u8], opcode: u8) -> Result<Self, WireError> {
        let mut c = Cursor { bytes, pos: 0 };
        match c.u8()? {
            got if got == opcode => Ok(c),
            got if opcode & 0x80 == 0 => Err(WireError::UnknownOpcode(got)),
            got => Err(WireError::UnexpectedReply(got)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed f32 run into `out` (resized in place, so a
    /// reused buffer allocates nothing in the steady state).
    fn f32s_into(&mut self, out: &mut Vec<f32>) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
        out.resize(n, 0.0);
        f32s_from_le(out, bytes);
        Ok(())
    }

    /// Reads a length-prefixed `(u32, u32)` segment list into `out`
    /// (resized in place, zero-alloc when reused).
    fn segments_into(&mut self, out: &mut Vec<(u32, u32)>) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        out.clear();
        out.reserve(n);
        out.extend(bytes.chunks_exact(8).map(|c| {
            (
                u32::from_le_bytes(c[..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..].try_into().unwrap()),
            )
        }));
        Ok(())
    }

    /// Reads a length-prefixed f32 run into an exact-length slice.
    fn f32s_into_slice(&mut self, out: &mut [f32]) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        if n != out.len() {
            // A size mismatch means the frame disagrees with the layout the
            // client derived at launch — corruption, not a soft error.
            return Err(WireError::Truncated);
        }
        let bytes = self.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
        f32s_from_le(out, bytes);
        Ok(())
    }

    fn u64s_into_slice(&mut self, out: &mut [u64]) -> Result<(), WireError> {
        let n = self.u32()? as usize;
        if n != out.len() {
            return Err(WireError::Truncated);
        }
        let bytes = self.take(n.checked_mul(8).ok_or(WireError::Truncated)?)?;
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *o = u64::from_le_bytes(c.try_into().unwrap());
        }
        Ok(())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::TrailingBytes(self.bytes.len() - self.pos));
        }
        Ok(())
    }
}

/// Decodes a `PushShard` payload, reading the gradient into the reusable
/// `grad` buffer. Returns `(shard, lr, momentum)`.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `PushShard`.
pub fn decode_push_shard_into(
    payload: &[u8],
    grad: &mut Vec<f32>,
) -> Result<(u32, f64, f64), WireError> {
    let mut c = Cursor::open(payload, op::PUSH_SHARD)?;
    let shard = c.u32()?;
    let lr = c.f64()?;
    let momentum = c.f64()?;
    c.f32s_into(grad)?;
    c.finish()?;
    Ok((shard, lr, momentum))
}

/// Decodes a `PushShardSparse` payload, reading the segment list and the
/// values into the reusable buffers. Returns `(shard, lr, momentum)`.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed
/// `PushShardSparse` (segment *semantics* — ordering, bounds — are
/// [`check_push`]'s; the decoder only moves bytes).
pub fn decode_push_shard_sparse_into(
    payload: &[u8],
    indices: &mut Vec<(u32, u32)>,
    rows: &mut Vec<f32>,
) -> Result<(u32, f64, f64), WireError> {
    let mut c = Cursor::open(payload, op::PUSH_SHARD_SPARSE)?;
    let shard = c.u32()?;
    let lr = c.f64()?;
    let momentum = c.f64()?;
    c.segments_into(indices)?;
    c.f32s_into(rows)?;
    c.finish()?;
    Ok((shard, lr, momentum))
}

/// Checks a `PushShard` or `PushShardSparse` payload against the server it
/// reached without reading a value: `shard_len(s)` is the length of the
/// server's local shard `s` (`None` past its last). A dense gradient must
/// be exactly that long; sparse segments must be ascending, disjoint,
/// inside the shard and as long together as the values behind them. The
/// framing is checked too, so a push that passes decodes and applies.
///
/// # Errors
///
/// Returns [`WireError::Misfit`] for contents the shard cannot hold, or the
/// usual framing errors.
pub fn check_push(
    payload: &[u8],
    shard_len: impl Fn(usize) -> Option<usize>,
) -> Result<(), WireError> {
    let opcode = *payload.first().ok_or(WireError::Truncated)?;
    let sparse = opcode == op::PUSH_SHARD_SPARSE;
    let mut c = Cursor::open(payload, if sparse { opcode } else { op::PUSH_SHARD })?;
    let len = shard_len(c.u32()? as usize).ok_or(WireError::Misfit(opcode))?;
    c.take(16)?; // lr, momentum
    let mut values = len;
    if sparse {
        let k = c.u32()? as usize;
        let segments = c.take(k.checked_mul(8).ok_or(WireError::Truncated)?)?;
        values = 0;
        check_runs(segments, len, |_, n| {
            values += n;
            true
        })
        .map_err(|_| WireError::Misfit(opcode))?;
    }
    if c.u32()? as usize != values {
        return Err(WireError::Misfit(opcode));
    }
    c.take(values * 4)?;
    c.finish()
}

/// Walks a `(u32 start, u32 len)` list — a pull's runs, a sparse push's
/// segments — checking that each starts at or after the end of the one
/// before and ends inside `0..limit` (in checked arithmetic), and hands it
/// to `accept`, which may refuse it too. Returns the index of the first
/// pair that fails.
fn check_runs(
    pairs: &[u8],
    limit: usize,
    mut accept: impl FnMut(usize, usize) -> bool,
) -> Result<(), u32> {
    let mut floor = 0;
    for (i, b) in pairs.chunks_exact(8).enumerate() {
        let start = u32::from_le_bytes(b[..4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(b[4..].try_into().unwrap()) as usize;
        match start.checked_add(len) {
            Some(end) if start >= floor && end <= limit && accept(start, len) => floor = end,
            _ => return Err(i as u32),
        }
    }
    Ok(())
}

/// Decodes a `Pulled` reply straight into the caller's slices — the
/// zero-allocation pull path: the router points these at the worker's flat
/// buffer, so the decode is the single parameter copy of the pull.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Pulled`
/// reply or its run lengths differ from the slice lengths.
pub fn decode_pulled_into(
    payload: &[u8],
    params_out: &mut [f32],
    clocks_out: &mut [u64],
) -> Result<(), WireError> {
    let whole = std::iter::once((0, params_out.len()));
    decode_pulled_runs_into(payload, whole, params_out, clocks_out)
}

/// Checks that `payload` is a `Pulled` reply carrying exactly `n_values`
/// parameters and `n_clocks` shard clocks without decoding either — for a
/// client that keeps the reply where it arrived and decodes it later
/// ([`decode_pulled_into`] then cannot fail on it).
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is anything else.
pub fn expect_pulled(payload: &[u8], n_values: usize, n_clocks: usize) -> Result<(), WireError> {
    let mut c = Cursor::open(payload, op::PULLED)?;
    if c.u32()? as usize != n_values {
        return Err(WireError::Truncated);
    }
    c.take(n_values.checked_mul(4).ok_or(WireError::Truncated)?)?;
    if c.u32()? as usize != n_clocks {
        return Err(WireError::Truncated);
    }
    c.take(n_clocks.checked_mul(8).ok_or(WireError::Truncated)?)?;
    c.finish()
}

/// Decodes the `Pulled` reply to a run pull, scattering the concatenated
/// values to the `(start, len)` `runs` of `params_out` that were asked for
/// and leaving every other position alone. Nothing is written unless the
/// reply carries exactly the runs' total length.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Pulled`
/// reply, its value count differs from the runs' total, or its clock count
/// from `clocks_out.len()`.
///
/// # Panics
///
/// Panics if a run reaches past `params_out`.
pub fn decode_pulled_runs_into(
    payload: &[u8],
    runs: impl Iterator<Item = (usize, usize)> + Clone,
    params_out: &mut [f32],
    clocks_out: &mut [u64],
) -> Result<(), WireError> {
    let mut c = Cursor::open(payload, op::PULLED)?;
    let n = c.u32()? as usize;
    if n != runs.clone().map(|(_, len)| len).sum::<usize>() {
        // A size mismatch means the frame disagrees with the layout the
        // client derived at launch — corruption, not a soft error.
        return Err(WireError::Truncated);
    }
    let mut values = c.take(n.checked_mul(4).ok_or(WireError::Truncated)?)?;
    for (start, len) in runs {
        let (run, rest) = values.split_at(len * 4);
        f32s_from_le(&mut params_out[start..start + len], run);
        values = rest;
    }
    c.u64s_into_slice(clocks_out)?;
    c.finish()
}

/// Decodes a `PullCommitted` request on the server that owns `slice_len`
/// parameters into the runs it asks for (`runs`, cleared first): the one
/// run `(0, slice_len)` for the bodyless frame, or else its run list,
/// *checked*: the count fits the frame exactly and every run is non-empty,
/// starts at or after the end of the one before and ends inside the slice.
/// What comes out can index the store unchecked.
///
/// # Errors
///
/// Returns [`WireError::BadRun`] naming the first offending run, or the
/// usual framing errors.
pub fn decode_pull_runs_into(
    payload: &[u8],
    slice_len: usize,
    runs: &mut Vec<(usize, usize)>,
) -> Result<(), WireError> {
    let mut c = Cursor::open(payload, op::PULL_COMMITTED)?;
    runs.clear();
    if c.pos == payload.len() {
        runs.push((0, slice_len));
        return Ok(());
    }
    let k = c.u32()? as usize;
    let bytes = c.take(k.checked_mul(8).ok_or(WireError::Truncated)?)?;
    c.finish()?;
    check_runs(bytes, slice_len, |start, len| {
        runs.push((start, len));
        len > 0
    })
    .map_err(WireError::BadRun)
}

/// Decodes a `Snapshot` request: whether it asks for the velocity (set)
/// or the parameters.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Snapshot`.
pub fn decode_snapshot_request(payload: &[u8]) -> Result<bool, WireError> {
    decode_flag(payload, op::SNAPSHOT)
}

/// Decodes a `Restore` request straight into `params` and `velocity`,
/// which must be exactly as long as the vectors it carries — the server's
/// slice. Nothing is allocated.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Restore`
/// of exactly those lengths.
pub fn decode_restore_into(
    payload: &[u8],
    params: &mut [f32],
    velocity: &mut [f32],
) -> Result<(), WireError> {
    let mut c = Cursor::open(payload, op::RESTORE)?;
    c.f32s_into_slice(params)?;
    c.f32s_into_slice(velocity)?;
    c.finish()
}

/// Decodes a `SnapshotData` reply straight into an exact-length slice.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed
/// `SnapshotData` reply of exactly `out.len()` values.
pub fn decode_snapshot_into(payload: &[u8], out: &mut [f32]) -> Result<(), WireError> {
    let mut c = Cursor::open(payload, op::SNAPSHOT_DATA)?;
    c.f32s_into_slice(out)?;
    c.finish()
}

/// Checks that a payload is exactly the bodyless `expected` opcode.
///
/// # Errors
///
/// Returns a [`WireError`] on any other payload.
pub fn expect_bodyless(payload: &[u8], expected: u8) -> Result<(), WireError> {
    Cursor::open(payload, expected)?.finish()
}

/// Reads an [`encode_flag`] payload; any non-zero flag byte is set.
fn decode_flag(payload: &[u8], opcode: u8) -> Result<bool, WireError> {
    let mut c = Cursor::open(payload, opcode)?;
    let flag = c.u8()? != 0;
    c.finish()?;
    Ok(flag)
}

/// Decodes a `Finite` reply.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Finite`.
pub fn decode_finite(payload: &[u8]) -> Result<bool, WireError> {
    decode_flag(payload, op::FINITE)
}

/// Decodes a `Synced` reply: the server's commit epoch.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `Synced`.
pub fn decode_synced(payload: &[u8]) -> Result<u64, WireError> {
    let mut c = Cursor::open(payload, op::SYNCED)?;
    let epoch = c.u64()?;
    c.finish()?;
    Ok(epoch)
}

/// Decodes a `PushAck` reply.
///
/// # Errors
///
/// Returns a [`WireError`] if the payload is not a well-formed `PushAck`.
pub fn decode_push_ack(payload: &[u8]) -> Result<u64, WireError> {
    let mut c = Cursor::open(payload, op::PUSH_ACK)?;
    let clock = c.u64()?;
    c.finish()?;
    Ok(clock)
}

// ----------------------------------------------------------------- framing

/// Capacity of the buffered readers both TCP ends put under
/// [`read_frame`]: large enough that a push batch or a small model's pull
/// reply arrives in one `read`, small enough that the slice of a large
/// payload that lands in it first (and is copied out) stays negligible.
pub const FRAME_READ_BUF: usize = 16 * 1024;

/// Reads one length-prefixed frame from `r` into `buf` (resized in place).
/// Returns `Ok(false)` on clean EOF at a frame boundary — how a TCP handler
/// observes its client hanging up.
///
/// `r` is a *buffered* reader by type: the prefix and a small payload are
/// then served from one `read` of the underlying stream, instead of one
/// syscall each for the first byte, the rest of the prefix and the payload.
/// A payload larger than what is buffered still lands straight in `buf`
/// (`BufReader` bypasses its buffer for reads at least as large as it).
///
/// # Errors
///
/// Propagates I/O errors; an oversize length prefix surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl std::io::BufRead, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    // EOF before the first length byte is a clean close; EOF mid-frame is
    // an error (`read_exact` reports it).
    if r.fill_buf()?.is_empty() {
        return Ok(false);
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversize(len),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Patches the 4-byte length prefix of a buffer laid out as
/// `[placeholder][payload]` (the zero-copy framing both ends use: encode
/// the payload after a reserved prefix, then fix the prefix).
///
/// # Panics
///
/// Panics if `buf` is shorter than the prefix.
pub fn patch_frame_len(buf: &mut [u8]) {
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[len][payload]`: the frame a conn writes for `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        frame.extend_from_slice(payload);
        patch_frame_len(&mut frame);
        frame
    }

    /// Every cut of `bytes` and `bytes` plus one byte fail `decode`.
    fn assert_cuts_and_extension_fail<T>(
        bytes: &[u8],
        mut decode: impl FnMut(&[u8]) -> Result<T, WireError>,
    ) {
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(decode(&long).err(), Some(WireError::TrailingBytes(1)));
    }

    #[test]
    fn push_shard_round_trips() {
        let grad = [1.0, -2.5, f32::MIN_POSITIVE, 0.0];
        let mut buf = Vec::new();
        encode_push_shard(&mut buf, 3, 0.05, 0.9, &grad);
        let mut out = vec![9.9f32; 1];
        let (shard, lr, mu) = decode_push_shard_into(&buf, &mut out).unwrap();
        assert_eq!((shard, lr, mu), (3, 0.05, 0.9));
        assert_eq!(out, grad);
        let mut again = Vec::new();
        encode_push_shard(&mut again, shard, lr, mu, &out);
        assert_eq!(again, buf);
        assert_cuts_and_extension_fail(&buf, |b| decode_push_shard_into(b, &mut out));
    }

    #[test]
    fn push_shard_sparse_round_trips() {
        let (segments, values) = ([(4, 2), (10, 3)], [1.0, -2.0, 0.5, f32::MIN_POSITIVE, -0.0]);
        let mut buf = Vec::new();
        encode_push_shard_sparse(&mut buf, 2, 0.25, 0.9, &segments, &values);
        // Reused decode buffers come back resized to the frame's contents.
        let mut indices = vec![(9u32, 9u32)];
        let mut rows = vec![9.9f32];
        let (shard, lr, mu) = decode_push_shard_sparse_into(&buf, &mut indices, &mut rows).unwrap();
        assert_eq!((shard, lr, mu), (2, 0.25, 0.9));
        assert_eq!(indices, segments);
        let mut again = Vec::new();
        encode_push_shard_sparse(&mut again, shard, lr, mu, &indices, &rows);
        assert_eq!(again, buf, "-0.0 and the subnormal survive bit for bit");
        // The sparse frame is smaller than the dense frame it replaces
        // whenever the touched fraction is below 1 (here: 5 of 16 values).
        let mut dense = Vec::new();
        encode_push_shard(&mut dense, 2, 0.25, 0.9, &[0.0; 16]);
        assert!(buf.len() < dense.len(), "{} vs {}", buf.len(), dense.len());
        assert_cuts_and_extension_fail(&buf, |b| {
            decode_push_shard_sparse_into(b, &mut indices, &mut rows)
        });
    }

    #[test]
    fn pushes_are_checked_against_the_shard_before_a_value_is_read() {
        // Two shards of 10 and 6 values.
        let shard_len = |s: usize| [10, 6].get(s).copied();
        let dense = |shard: u32, n: usize| {
            let mut buf = Vec::new();
            encode_push_shard(&mut buf, shard, 0.1, 0.9, &vec![1.0; n]);
            buf
        };
        let sparse = |shard: u32, segments: &[(u32, u32)], n: usize| {
            let mut buf = Vec::new();
            encode_push_shard_sparse(&mut buf, shard, 0.1, 0.9, segments, &vec![1.0; n]);
            buf
        };
        for ok in [
            dense(0, 10),
            dense(1, 6),
            sparse(0, &[], 0),
            sparse(0, &[(0, 2), (2, 0), (2, 3), (9, 1)], 6),
            sparse(1, &[(0, 6)], 6),
        ] {
            assert_eq!(check_push(&ok, shard_len), Ok(()));
            assert_cuts_and_extension_fail(&ok, |b| check_push(b, shard_len));
        }
        for (bad, opcode) in [
            (dense(2, 6), op::PUSH_SHARD),
            (dense(u32::MAX, 6), op::PUSH_SHARD),
            (dense(0, 9), op::PUSH_SHARD),
            (dense(1, 10), op::PUSH_SHARD),
            (sparse(2, &[(0, 1)], 1), op::PUSH_SHARD_SPARSE),
            (sparse(1, &[(0, 7)], 7), op::PUSH_SHARD_SPARSE),
            (sparse(0, &[(2, 2), (1, 1)], 3), op::PUSH_SHARD_SPARSE),
            (sparse(0, &[(0, 3), (2, 2)], 5), op::PUSH_SHARD_SPARSE),
            (sparse(0, &[(1, 2), (5, 1)], 2), op::PUSH_SHARD_SPARSE),
            (sparse(0, &[(1, 2)], 3), op::PUSH_SHARD_SPARSE),
            (sparse(0, &[(u32::MAX, u32::MAX)], 0), op::PUSH_SHARD_SPARSE),
        ] {
            assert_eq!(check_push(&bad, shard_len), Err(WireError::Misfit(opcode)));
        }
        assert_eq!(
            check_push(&[op::PULL_COMMITTED], shard_len),
            Err(WireError::UnknownOpcode(op::PULL_COMMITTED))
        );
    }

    #[test]
    fn pulled_decodes_into_slices() {
        let mut buf = Vec::new();
        encode_pulled(&mut buf, &[0.5, 1.5, 2.5], &[7, 9]);
        let mut params = [0.0f32; 3];
        let mut clocks = [0u64; 2];
        decode_pulled_into(&buf, &mut params, &mut clocks).unwrap();
        assert_eq!(params, [0.5, 1.5, 2.5]);
        assert_eq!(clocks, [7, 9]);
        assert_eq!(expect_pulled(&buf, 3, 2), Ok(()));
        // Length mismatches are corruption, not silent truncation.
        let mut short = [0.0f32; 2];
        assert!(decode_pulled_into(&buf, &mut short, &mut clocks).is_err());
        assert!(expect_pulled(&buf, 2, 2).is_err());
        assert!(expect_pulled(&buf, 3, 1).is_err());
        assert_cuts_and_extension_fail(&buf, |b| decode_pulled_into(b, &mut params, &mut clocks));
        assert_cuts_and_extension_fail(&buf, |b| expect_pulled(b, 3, 2));
    }

    #[test]
    fn pull_run_list_round_trips_and_the_bodyless_frame_is_unchanged() {
        // The whole slice is still the one opcode byte, and the server
        // reads it as the slice's one run.
        let mut bare = Vec::new();
        encode_bodyless(&mut bare, op::PULL_COMMITTED);
        assert_eq!(bare, [op::PULL_COMMITTED]);
        let mut runs = vec![(7, 7)];
        assert_eq!(decode_pull_runs_into(&bare, 100, &mut runs), Ok(()));
        assert_eq!(runs, [(0, 100)]);

        // A run list: same opcode, `[k][(start, len)…]` behind it.
        let mut buf = Vec::new();
        encode_pull_runs(&mut buf, [(0, 4), (4, 1), (90, 10)].into_iter());
        assert_eq!(buf[0], op::PULL_COMMITTED);
        assert_eq!(buf.len(), 1 + 4 + 3 * 8);
        assert_eq!(decode_pull_runs_into(&buf, 100, &mut runs), Ok(()));
        assert_eq!(runs, [(0, 4), (4, 1), (90, 10)]);
        let mut again = Vec::new();
        encode_pull_runs(&mut again, runs.iter().copied());
        assert_eq!(again, buf);
        // Cut to its opcode a run pull is the bodyless pull; any other cut
        // fails.
        for cut in (0..buf.len()).filter(|&cut| cut != 1) {
            assert!(decode_pull_runs_into(&buf[..cut], 100, &mut runs).is_err());
        }
        // No runs is a request too (the server answers with its clocks).
        buf.clear();
        encode_pull_runs(&mut buf, std::iter::empty());
        assert_eq!(buf, [op::PULL_COMMITTED, 0, 0, 0, 0]);
        assert_eq!(decode_pull_runs_into(&buf, 100, &mut runs), Ok(()));
        assert!(runs.is_empty());
    }

    #[test]
    fn bad_pull_run_lists_are_rejected_whole() {
        let frame = |k: u32, runs: &[(u32, u32)]| {
            let mut buf = vec![op::PULL_COMMITTED];
            put_u32(&mut buf, k);
            for &(start, len) in runs {
                put_u32(&mut buf, start);
                put_u32(&mut buf, len);
            }
            buf
        };
        let mut out = Vec::new();
        let mut check = |buf: &[u8], err: WireError| {
            assert_eq!(decode_pull_runs_into(buf, 100, &mut out), Err(err));
        };
        // The count against the frame: more than it holds, fewer, and a
        // count whose byte length overflows.
        check(&frame(3, &[(0, 1), (2, 1)]), WireError::Truncated);
        check(&frame(1, &[(0, 1), (2, 1)]), WireError::TrailingBytes(8));
        check(&frame(u32::MAX, &[]), WireError::Truncated);
        check(&[op::PULL_COMMITTED, 1, 0], WireError::Truncated);
        // Each run against the contract; the error names the offender.
        check(&frame(2, &[(0, 1), (5, 0)]), WireError::BadRun(1));
        check(&frame(2, &[(5, 2), (0, 1)]), WireError::BadRun(1));
        check(&frame(2, &[(0, 6), (5, 2)]), WireError::BadRun(1));
        check(&frame(1, &[(99, 2)]), WireError::BadRun(0));
        check(&frame(1, &[(100, 1)]), WireError::BadRun(0));
        check(&frame(1, &[(u32::MAX, u32::MAX)]), WireError::BadRun(0));
        // Up to the slice's last element is fine.
        assert_eq!(
            decode_pull_runs_into(&frame(1, &[(99, 1)]), 100, &mut out),
            Ok(())
        );
    }

    #[test]
    fn pulled_runs_scatter_and_a_wrong_count_writes_nothing() {
        let mut reply = Vec::new();
        begin_pulled(&mut reply, 3);
        put_f32_values(&mut reply, &[1.0]);
        put_f32_values(&mut reply, &[2.0, 3.0]);
        finish_pulled(&mut reply, &[7, 9]);
        // Piecewise encoding is `encode_pulled` of the concatenation.
        let mut whole = Vec::new();
        encode_pulled(&mut whole, &[1.0, 2.0, 3.0], &[7, 9]);
        assert_eq!(reply, whole);

        let mut params = [-1.0f32; 6];
        let mut clocks = [0u64; 2];
        let runs = [(1usize, 1usize), (4, 2)];
        decode_pulled_runs_into(&reply, runs.iter().copied(), &mut params, &mut clocks).unwrap();
        assert_eq!(params, [-1.0, 1.0, -1.0, -1.0, 2.0, 3.0]);
        assert_eq!(clocks, [7, 9]);
        // A reply that does not carry exactly the runs asked for is
        // corruption, detected before the first value lands.
        let mut params = [-1.0f32; 6];
        let short = [(1usize, 1usize), (4, 1)];
        assert_eq!(
            decode_pulled_runs_into(&reply, short.iter().copied(), &mut params, &mut clocks),
            Err(WireError::Truncated)
        );
        assert_eq!(params, [-1.0; 6]);
        assert_cuts_and_extension_fail(&reply, |b| {
            decode_pulled_runs_into(b, runs.iter().copied(), &mut params, &mut clocks)
        });
    }

    #[test]
    fn nan_gradients_survive_byte_exactly() {
        let weird = f32::from_bits(0x7fc0_dead); // a payloaded NaN
        let mut a = Vec::new();
        encode_push_shard(&mut a, 0, f64::NAN, -0.0, &[weird, f32::NEG_INFINITY]);
        let mut grad = Vec::new();
        let (shard, lr, mu) = decode_push_shard_into(&a, &mut grad).unwrap();
        assert_eq!(grad[0].to_bits(), weird.to_bits());
        let mut b = Vec::new();
        encode_push_shard(&mut b, shard, lr, mu, &grad);
        assert_eq!(a, b, "re-encode must be byte-exact");
    }

    #[test]
    fn decoders_name_a_wrong_opcode_by_direction() {
        // A request decoder meets an unknown request; a reply decoder, a
        // reply to something else.
        let mut grad = Vec::new();
        assert_eq!(
            decode_push_shard_into(&[0x55], &mut grad),
            Err(WireError::UnknownOpcode(0x55))
        );
        assert_eq!(
            decode_push_ack(&[op::OK]),
            Err(WireError::UnexpectedReply(op::OK))
        );
        assert_eq!(
            batch_items(&[0x55], op::BATCH_REPLY).err(),
            Some(WireError::UnexpectedReply(0x55))
        );
        assert_eq!(decode_finite(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn flag_and_restore_payloads_round_trip() {
        for (opcode, decode) in [
            (op::SNAPSHOT, decode_snapshot_request as fn(&[u8]) -> _),
            (op::FINITE, decode_finite),
        ] {
            for flag in [false, true] {
                let mut buf = Vec::new();
                encode_flag(&mut buf, opcode, flag);
                assert_eq!(buf, [opcode, u8::from(flag)]);
                assert_eq!(decode(&buf), Ok(flag));
                assert_cuts_and_extension_fail(&buf, decode);
            }
        }
        let (params, velocity) = ([1.0, f32::from_bits(0x7fc0_0001)], [-0.0, 3.0]);
        let mut buf = Vec::new();
        encode_restore(&mut buf, &params, &velocity);
        let (mut p, mut v) = ([0.0f32; 2], [0.0f32; 2]);
        decode_restore_into(&buf, &mut p, &mut v).unwrap();
        let mut again = Vec::new();
        encode_restore(&mut again, &p, &v);
        assert_eq!(again, buf);
        assert_cuts_and_extension_fail(&buf, |b| decode_restore_into(b, &mut p, &mut v));
        // A restore for another slice length does not fit these buffers.
        let (mut p3, mut v3) = ([0.0f32; 3], [0.0f32; 3]);
        assert!(decode_restore_into(&buf, &mut p3, &mut v3).is_err());
        let mut data = Vec::new();
        encode_snapshot_data(&mut data, &params);
        decode_snapshot_into(&data, &mut p).unwrap();
        assert_eq!(p.map(f32::to_bits), params.map(f32::to_bits));
        assert!(decode_snapshot_into(&data, &mut p3).is_err());
        assert_cuts_and_extension_fail(&data, |b| decode_snapshot_into(b, &mut p));
    }

    #[test]
    fn stream_framing_round_trips() {
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], &[][..], &[op::SYNCED][..]] {
            wire.extend_from_slice(&framed(payload));
        }
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"abc");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert!(buf.is_empty());
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, [op::SYNCED]);
        // Clean EOF at a boundary.
        assert!(!read_frame(&mut r, &mut buf).unwrap());
    }

    /// A reader that hands out at most `chunk` bytes per `read` and counts
    /// the calls — a socket whose segments arrive as they please.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn two_frames() -> Vec<u8> {
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(&[op::SYNCED]));
        wire
    }

    #[test]
    fn frames_survive_a_reader_that_trickles_one_byte_at_a_time() {
        let wire = two_frames();
        let mut r = std::io::BufReader::new(Chunked {
            bytes: &wire,
            chunk: 1,
            reads: 0,
        });
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"first");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, [op::SYNCED]);
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
        // EOF inside a frame is an error, not a clean close.
        let mut r = std::io::BufReader::new(Chunked {
            bytes: &wire[..wire.len() - 1],
            chunk: 1,
            reads: 0,
        });
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(
            read_frame(&mut r, &mut buf).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn two_frames_delivered_together_cost_one_read() {
        let wire = two_frames();
        let mut r = std::io::BufReader::with_capacity(
            FRAME_READ_BUF,
            Chunked {
                bytes: &wire,
                chunk: usize::MAX,
                reads: 0,
            },
        );
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"first");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, [op::SYNCED]);
        // Prefix and payload of both frames came out of the one read: the
        // second frame was not lost with the first's buffer, and neither
        // cost a read per field.
        assert_eq!(r.get_ref().reads, 1);
        // A payload larger than the buffer still arrives whole.
        let big = vec![7u8; 3 * FRAME_READ_BUF];
        let framed = framed(&big);
        let mut r = std::io::BufReader::with_capacity(
            FRAME_READ_BUF,
            Chunked {
                bytes: &framed,
                chunk: usize::MAX,
                reads: 0,
            },
        );
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, big);
        assert_eq!(r.get_ref().reads, 2, "buffered head, then the rest direct");
    }

    #[test]
    fn batch_round_trips_and_rejects_bad_framing() {
        let mut buf = Vec::new();
        let head = begin_batch(&mut buf, op::BATCH);
        let mark = open_batch_item(&mut buf);
        encode_push_shard(&mut buf, 1, 0.1, 0.9, &[1.0, -2.0]);
        close_batch_item(&mut buf, head, mark);
        let mark = open_batch_item(&mut buf);
        encode_push_shard_sparse(&mut buf, 0, 0.1, 0.9, &[(0, 1)], &[3.0]);
        close_batch_item(&mut buf, head, mark);
        put_bodyless_item(&mut buf, head, op::PULL_COMMITTED);
        assert_eq!(&buf[1..3], 3u16.to_le_bytes());
        // Each item is the bare request's payload, byte for byte.
        let items: Vec<&[u8]> = batch_items(&buf, op::BATCH).unwrap().collect();
        let mut bare = Vec::new();
        encode_push_shard(&mut bare, 1, 0.1, 0.9, &[1.0, -2.0]);
        assert_eq!(items[0], &bare[..]);
        bare.clear();
        encode_push_shard_sparse(&mut bare, 0, 0.1, 0.9, &[(0, 1)], &[3.0]);
        assert_eq!(items[1], &bare[..]);
        assert_eq!(items[2], [op::PULL_COMMITTED]);
        assert_eq!(
            buf.len(),
            BATCH_HEADER_BYTES + 8 + items[0].len() + items[1].len() + BODYLESS_ITEM_BYTES
        );
        // Every truncation fails; so does a trailing byte.
        assert_cuts_and_extension_fail(&buf, |b| batch_items(b, op::BATCH).map(drop));
        // A count above the records present, a count of zero, and a count
        // below them (the surplus records are trailing bytes).
        for (n, err) in [
            (4u16, WireError::Truncated),
            (0, WireError::Truncated),
            (
                1,
                WireError::TrailingBytes(buf.len() - 3 - 4 - items[0].len()),
            ),
        ] {
            let mut bad = buf.clone();
            bad[1..3].copy_from_slice(&n.to_le_bytes());
            assert_eq!(batch_items(&bad, op::BATCH).unwrap_err(), err, "count {n}");
        }
        // Nothing that changes what a batch *is* may ride inside one.
        for inner in [op::BATCH, op::SEQUENCED, op::SHUTDOWN] {
            let mut bad = Vec::new();
            let head = begin_batch(&mut bad, op::BATCH);
            put_bodyless_item(&mut bad, head, inner);
            assert_eq!(
                batch_items(&bad, op::BATCH).unwrap_err(),
                WireError::NotBatchable(inner)
            );
        }
        // A reply batch carries replies in order and names its direction.
        let mut bytes = Vec::new();
        let head = begin_batch(&mut bytes, op::BATCH_REPLY);
        for clock in [4, 9] {
            let mark = open_batch_item(&mut bytes);
            encode_push_ack(&mut bytes, clock);
            close_batch_item(&mut bytes, head, mark);
        }
        let acks: Vec<u64> = batch_items(&bytes, op::BATCH_REPLY)
            .unwrap()
            .map(|ack| decode_push_ack(ack).unwrap())
            .collect();
        assert_eq!(acks, [4, 9]);
        assert_cuts_and_extension_fail(&bytes, |b| batch_items(b, op::BATCH_REPLY).map(drop));
        assert_eq!(
            batch_items(&buf, op::BATCH_REPLY).unwrap_err(),
            WireError::UnexpectedReply(op::BATCH)
        );
    }

    #[test]
    fn oversize_frames_are_rejected() {
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn sequenced_prefix_round_trips() {
        let mut buf = Vec::new();
        encode_sequenced_prefix(&mut buf, 0xdead_beef_cafe, 42);
        encode_push_shard(&mut buf, 3, 0.05, 0.9, &[1.0, -2.0]);
        let (client, seq, inner) = decode_sequenced_prefix(&buf).unwrap();
        assert_eq!(client, 0xdead_beef_cafe);
        assert_eq!(seq, 42);
        let mut grad = Vec::new();
        let (shard, lr, mu) = decode_push_shard_into(inner, &mut grad).unwrap();
        assert_eq!((shard, lr, mu), (3, 0.05, 0.9));
        assert_eq!(grad, vec![1.0, -2.0]);
        // An empty inner payload is the dispatcher's problem, not ours.
        let mut bare = Vec::new();
        encode_sequenced_prefix(&mut bare, 1, 2);
        let (_, _, inner) = decode_sequenced_prefix(&bare).unwrap();
        assert!(inner.is_empty());
    }

    #[test]
    fn sequenced_prefix_rejects_bad_headers() {
        let mut buf = Vec::new();
        encode_sequenced_prefix(&mut buf, 7, 9);
        for cut in 0..buf.len() {
            assert!(decode_sequenced_prefix(&buf[..cut]).is_err(), "cut {cut}");
        }
        // Wrong opcode.
        assert_eq!(
            decode_sequenced_prefix(&[op::PUSH_SHARD]),
            Err(WireError::UnknownOpcode(op::PUSH_SHARD))
        );
        // Unsupported version byte.
        let mut bad = buf.clone();
        bad[1] = SEQ_WIRE_VERSION + 1;
        assert_eq!(
            decode_sequenced_prefix(&bad),
            Err(WireError::BadVersion(SEQ_WIRE_VERSION + 1))
        );
    }

    #[test]
    fn server_info_round_trips() {
        let info = ServerInfo {
            nonce: 0x1234_5678_9abc_def0,
            server: 3,
            first_shard: 12,
            shard_count: 4,
            param_offset: 1024,
            param_len: 768,
            sync_every: 4,
        };
        let mut buf = Vec::new();
        encode_server_info(&mut buf, &info);
        assert_eq!(decode_server_info(&buf).unwrap(), info);
        // Hello is bodyless.
        let mut req = Vec::new();
        encode_bodyless(&mut req, op::HELLO);
        assert_eq!(req, [op::HELLO]);
        assert_eq!(expect_bodyless(&req, op::HELLO), Ok(()));
        assert_cuts_and_extension_fail(&buf, decode_server_info);
        assert_cuts_and_extension_fail(&req, |b| expect_bodyless(b, op::HELLO));
        // Wrong opcode is an UnexpectedReply for the dedicated decoder.
        assert_eq!(
            decode_server_info(&[op::OK]),
            Err(WireError::UnexpectedReply(op::OK))
        );
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let mut stats = ServerStatsSnapshot {
            server: 2,
            shard_apply_ns: vec![120, 0, 77],
            shard_applies: vec![3, 0, 1],
            bytes_in: 4096,
            bytes_out: 512,
            dedup_hits: 5,
            ..ServerStatsSnapshot::default()
        };
        stats.requests[op::PUSH_SHARD as usize] = 40;
        stats.requests[op::PULL_COMMITTED as usize] = 7;
        stats.apply_ns.count = 4;
        stats.apply_ns.sum = 197;
        stats.apply_ns.max = 120;
        stats.apply_ns.buckets[7] = 4;
        let mut buf = Vec::new();
        encode_stats_snapshot(&mut buf, &stats);
        assert_eq!(decode_stats_snapshot(&buf).unwrap(), stats);
        // Re-encode is byte-exact.
        let mut again = Vec::new();
        encode_stats_snapshot(&mut again, &decode_stats_snapshot(&buf).unwrap());
        assert_eq!(buf, again);
        assert_cuts_and_extension_fail(&buf, decode_stats_snapshot);
        // Wrong opcode is an UnexpectedReply for the dedicated decoder.
        assert_eq!(
            decode_stats_snapshot(&[op::OK]),
            Err(WireError::UnexpectedReply(op::OK))
        );
        // Mismatched per-shard vector lengths are corruption.
        let bad = ServerStatsSnapshot {
            shard_apply_ns: vec![1, 2],
            shard_applies: vec![1],
            ..ServerStatsSnapshot::default()
        };
        let mut buf = Vec::new();
        encode_stats_snapshot(&mut buf, &bad);
        assert_eq!(decode_stats_snapshot(&buf), Err(WireError::Truncated));
    }
}
