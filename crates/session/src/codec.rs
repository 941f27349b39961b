//! The compact batch codec: one [`SessionFrame`] per link per round.
//!
//! A frame carries everything one node sends one neighbour in one round:
//!
//! * a **trail table** — every distinct propagation trail referenced by the
//!   frame, front-coded on the wire (each trail stores only the suffix it
//!   does not share with its predecessor) with varint node ids, and held in
//!   memory as one [`TrailTable`]: a single node buffer plus row ends;
//! * **entries** referencing trails by table index: a [`Values`] entry
//!   ships a contiguous run of payload slots over one shared trail (the
//!   batched form of type-1 dealer-value messages), a [`Knowledge`] entry
//!   is one type-2 message.
//!
//! The codec is *stateless per frame*: a frame decodes alone, with no
//! session-global template registry to keep consistent across drops,
//! reorders or reconnects — which is what lets the same bytes run over the
//! synchronous `Runner`, the fault-injecting `NetRunner` and the socket
//! backend `rmt-netd` unchanged. Compression comes from three sources:
//! batching (one trail serves every payload slot), front-coding (sibling
//! trails share long prefixes), and varints (small ids cost one byte).
//! The varints, node lists and knowledge bodies are those of
//! [`rmt_core::wire`], which the per-message [`PkaPayload`] codec writes
//! too: a knowledge entry has one byte encoding in the workspace.
//!
//! [`pack`](SessionFrame::pack) and [`expand`](SessionFrame::expand) are
//! the reference semantics: `expand` losslessly recovers the per-message
//! [`PkaPayload`] representation, so the safety arguments and the coupled
//! run attacks of the per-message protocol transfer unchanged — the
//! differential gate (`tests/differential.rs`) and the proptest round-trip
//! suite (`tests/codec_props.rs`) enforce exactly that. Honest nodes never
//! take that detour on received frames: a relay forwards in frame form
//! ([`relay`](SessionFrame::relay) rewrites the trail table and shares each
//! kept value run and claim, pinned byte for byte to pack-of-expand by
//! `tests/codec_props.rs`), and the receiver reads messages in place
//! through the borrowed iterator whose owning form `expand` is.
//!
//! A relay neither hashes nor allocates per trail on the common path. It
//! writes each kept `trail ‖ me` into the output table's one buffer, and
//! finds the output id of an incoming trail in a per-frame row map. That is
//! exact because two kept trails can only be equal if they come from one
//! sender: a valid trail ends at its sender. A table knows whether its
//! rows are distinct (`pack` and `relay` record it at construction; a
//! `from_parts` or `decode` table checks when a relay first asks), so only
//! a sender with several frames in the inbox, or a frame that repeats a
//! row, has its trails interned by content, in a map with std's keyed
//! hasher because the adversary chooses those trails.
//!
//! A frame is a shared, immutable handle: [`pack`](SessionFrame::pack),
//! [`relay`](SessionFrame::relay), `decode` and
//! [`from_parts`](SessionFrame::from_parts) build the body once and wrap it
//! in an `Arc`, so the per-neighbour copies of a broadcast are reference
//! count bumps rather than deep copies of every trail, value run and
//! knowledge entry. The wire size is computed lazily, on the first
//! `encoded_bits` call, and cached in the shared body, so the transport
//! bills every copy the same bits without re-encoding.
//!
//! Entries are shared one level further down. A knowledge entry holds its
//! claim `(γ(u), 𝒵_u)` as one `Arc<`[`Claim`]`>`, allocated only by `pack`
//! and `decode`: `relay` forwards a kept claim as a reference-count bump,
//! and so does the receiver, which stores the same `Arc` in the claim table
//! of every undecided slot. A value entry holds an immutable, shared
//! [`ValueRun`]: `relay` forwards it by reference and builds a fresh run
//! only where `pack`'s coalescing rule joins two runs. `Debug` prints the
//! flat `Knowledge { node, view, structure, trail }` form and a run as its
//! list of values, so event streams see neither `Arc`.
//!
//! Sizing a frame reads cached lengths: a claim counts the encoded size of
//! its view and structure, and a value run its varints, from their values
//! the first time a frame carrying them is sized, and keep the count. Each
//! writes itself as one [`Sink::chunk`] of that length, which a counting
//! sink adds without walking it, so `encoded_bits` costs O(1) per entry
//! already sized beyond the trail table, and sizing and encoding keep one
//! definition. A claim or run that is only read (a receiver's decoded
//! frame, an ingested claim) is never counted.
//!
//! [`Values`]: SessionEntry::Values
//! [`Knowledge`]: SessionEntry::Knowledge

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use rmt_core::protocols::pka_decision::Claim;
use rmt_core::protocols::rmt_pka::{valid_arrival, PkaPayload, MODEL_ID_BITS, MODEL_VALUE_BITS};
use rmt_core::wire::{self, Sink};
use rmt_core::Value;
use rmt_sets::NodeId;
use rmt_sim::framing;
use rmt_sim::{Payload, WirePayload};

/// Wire tag for [`SessionEntry::Values`].
const TAG_VALUES: u8 = 0;
/// Wire tag for [`SessionEntry::Knowledge`].
const TAG_KNOWLEDGE: u8 = 1;

/// One batched item of a [`SessionFrame`].
#[derive(Clone, PartialEq)]
pub enum SessionEntry {
    /// A run of type-1 dealer-value messages for consecutive payload slots
    /// `first_slot .. first_slot + values.len()`, all sharing one trail.
    Values {
        /// Index into the frame's trail table.
        trail: u32,
        /// The payload slot of `values[0]`.
        first_slot: u32,
        /// One claimed dealer value per consecutive slot.
        values: ValueRun,
    },
    /// A type-2 knowledge message (payload-independent: sent once per
    /// session, not once per payload — the main amortization win).
    Knowledge {
        /// The node the claim is about.
        node: NodeId,
        /// The claimed view γ(node) and local structure 𝒵_node, shared by
        /// every relayed copy and the receiver's claim pool.
        claim: Arc<Claim>,
        /// Index into the frame's trail table.
        trail: u32,
    },
}

/// Prints the flat `Knowledge { node, view, structure, trail }` form, so
/// event streams that carry `format!("{frame:?}")` do not depend on the
/// shared claim.
impl fmt::Debug for SessionEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionEntry::Values {
                trail,
                first_slot,
                values,
            } => f
                .debug_struct("Values")
                .field("trail", trail)
                .field("first_slot", first_slot)
                .field("values", values)
                .finish(),
            SessionEntry::Knowledge { node, claim, trail } => f
                .debug_struct("Knowledge")
                .field("node", node)
                .field("view", claim.view())
                .field("structure", claim.structure())
                .field("trail", trail)
                .finish(),
        }
    }
}

impl SessionEntry {
    /// The entry's index into the trail table.
    fn trail(&self) -> u32 {
        match self {
            SessionEntry::Values { trail, .. } | SessionEntry::Knowledge { trail, .. } => *trail,
        }
    }
}

/// The values of a [`SessionEntry::Values`] entry: an immutable, shared run
/// that remembers its encoded size.
///
/// `clone` bumps a reference count, so [`relay`](SessionFrame::relay)
/// forwards a run without copying it. The size — the varint count and
/// values a frame writes for the run — is counted from the values the first
/// time the run is sized, and a clone made after that carries it. A run
/// reads as a `[Value]` slice.
#[derive(Clone)]
pub struct ValueRun {
    values: Arc<[Value]>,
    /// The encoded length of `values`, in bytes, counted on first use.
    wire_len: OnceLock<usize>,
}

impl ValueRun {
    fn encode(&self, out: &mut impl Sink) {
        let len = *self
            .wire_len
            .get_or_init(|| wire::encoded_len(|out| encode_run(&self.values, out)));
        out.chunk(len, |out| encode_run(&self.values, out));
    }
}

/// Writes a value run: its length, then each value.
fn encode_run(values: &[Value], out: &mut impl Sink) {
    out.varint(values.len() as u64);
    for &v in values {
        out.varint(v);
    }
}

impl From<Vec<Value>> for ValueRun {
    fn from(values: Vec<Value>) -> Self {
        ValueRun {
            values: values.into(),
            wire_len: OnceLock::new(),
        }
    }
}

impl Deref for ValueRun {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.values
    }
}

/// Value equality; the cached size is derived, so it takes no part.
impl PartialEq for ValueRun {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for ValueRun {}

/// Prints the values as a list, like the `Vec<Value>` a run replaces.
impl fmt::Debug for ValueRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One logical message of a frame, borrowed in place: a [`PkaPayload`]
/// without the copies.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Message<'a> {
    /// A type-1 dealer-value message.
    Value { value: Value, trail: &'a [NodeId] },
    /// A type-2 knowledge message.
    Knowledge {
        node: NodeId,
        claim: &'a Arc<Claim>,
        trail: &'a [NodeId],
    },
}

impl Message<'_> {
    /// The message's propagation trail.
    pub(crate) fn trail(&self) -> &[NodeId] {
        match self {
            Message::Value { trail, .. } | Message::Knowledge { trail, .. } => trail,
        }
    }

    fn to_payload(self) -> PkaPayload {
        match self {
            Message::Value { value, trail } => PkaPayload::DealerValue {
                value,
                trail: trail.to_vec(),
            },
            Message::Knowledge { node, claim, trail } => PkaPayload::Knowledge {
                node,
                view: claim.view().clone(),
                structure: claim.structure().clone(),
                trail: trail.to_vec(),
            },
        }
    }
}

/// Everything one node sends one neighbour in one round.
///
/// A frame is a shared handle to one immutable body: `clone` bumps a
/// reference count, so a broadcast's per-neighbour copies are one frame,
/// and equality compares bodies. The wire size is computed on the first
/// [`encoded_bits`](Payload::encoded_bits) call and cached in the body,
/// so every copy is billed the same bits without re-encoding.
#[derive(Clone)]
pub struct SessionFrame(Arc<FrameBody>);

/// A frame's trail table: its rows stored end to end in one node buffer.
///
/// Row `i` is the slice of `nodes` ending at `ends[i]` and starting where
/// row `i − 1` ends, so a table of any size owns two buffers, which grow
/// as rows are written. `Debug` prints the rows as a list of lists and
/// equality compares the rows, as for the `Vec<Vec<NodeId>>` the table
/// stores.
///
/// The table also knows whether its rows are pairwise distinct:
/// [`pack`](SessionFrame::pack) and [`relay`](SessionFrame::relay) write
/// distinct rows and record so by construction, while a table from
/// [`from_parts`](SessionFrame::from_parts) or `decode` checks on the first
/// [`is_distinct`](TrailTable::is_distinct) call. `relay` is the only
/// reader in the program, so a frame that is never relayed never pays for
/// the check.
#[derive(Clone, Default)]
pub struct TrailTable {
    nodes: Vec<NodeId>,
    ends: Vec<usize>,
    distinct: OnceLock<bool>,
}

impl TrailTable {
    /// The number of rows (trails).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&[NodeId]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.nodes[start..end])
    }

    /// The rows, in table order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        (0..self.len()).map(move |i| &self[i])
    }

    /// `true` if no two rows are equal. Checked on the first call unless
    /// the table was built distinct.
    pub fn is_distinct(&self) -> bool {
        *self.distinct.get_or_init(|| self.rows_distinct())
    }

    /// A table of the given rows, their distinctness left to be checked.
    fn from_rows(rows: &[Vec<NodeId>]) -> Self {
        let mut table = TrailTable::default();
        for row in rows {
            table.push_row(row, None);
        }
        table
    }

    /// An empty table to which only distinct rows will be written.
    fn distinct() -> Self {
        TrailTable {
            distinct: OnceLock::from(true),
            ..TrailTable::default()
        }
    }

    /// Closes the row written into `nodes` since the last row ended, and
    /// returns its index.
    fn end_row(&mut self) -> u32 {
        self.ends.push(self.nodes.len());
        self.ends.len() as u32 - 1
    }

    /// Appends the row `trail ‖ last` and returns its index.
    fn push_row(&mut self, trail: &[NodeId], last: Option<NodeId>) -> u32 {
        self.nodes.extend_from_slice(trail);
        self.nodes.extend(last);
        self.end_row()
    }

    /// Whether the rows are pairwise distinct: sorts row indices by row and
    /// compares neighbours, without hashing.
    fn rows_distinct(&self) -> bool {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self[a].cmp(&self[b]));
        order.windows(2).all(|w| self[w[0]] != self[w[1]])
    }
}

impl std::ops::Index<usize> for TrailTable {
    type Output = [NodeId];

    fn index(&self, i: usize) -> &[NodeId] {
        self.get(i).expect("trail index within the table")
    }
}

/// Row equality; distinctness is derived from the rows.
impl PartialEq for TrailTable {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.nodes == other.nodes
    }
}

impl Eq for TrailTable {}

/// Prints the rows as a list of lists.
impl fmt::Debug for TrailTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The shared body of a [`SessionFrame`]; never mutated once wrapped.
struct FrameBody {
    /// The trail table: every propagation trail this frame uses.
    trails: TrailTable,
    /// The batched messages, referencing trails by index.
    entries: Vec<SessionEntry>,
    /// The framed wire size in bits, filled on first use (lazily, so a
    /// frame too large to encode can still be built and inspected).
    bits: OnceLock<usize>,
}

impl SessionFrame {
    /// An empty frame.
    pub fn new() -> Self {
        SessionFrame::from_parts(Vec::new(), Vec::new())
    }

    /// A frame over a given trail table and entry list, taken as is (an
    /// entry may reference a missing trail; [`expand`](Self::expand)
    /// rejects such frames).
    pub fn from_parts(trails: Vec<Vec<NodeId>>, entries: Vec<SessionEntry>) -> Self {
        SessionFrame::from_table(TrailTable::from_rows(&trails), entries)
    }

    fn from_table(trails: TrailTable, entries: Vec<SessionEntry>) -> Self {
        SessionFrame(Arc::new(FrameBody {
            trails,
            entries,
            bits: OnceLock::new(),
        }))
    }

    /// The trail table: every propagation trail this frame uses.
    pub fn trails(&self) -> &TrailTable {
        &self.0.trails
    }

    /// The batched messages, referencing trails by index.
    pub fn entries(&self) -> &[SessionEntry] {
        &self.0.entries
    }

    /// `true` if the frame carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// Packs per-message `(slot, payload)` logical messages into one frame,
    /// interning trails and coalescing consecutive same-trail value runs.
    ///
    /// `Knowledge` payloads are slot-independent; their slot component is
    /// ignored (and comes back as `0` from [`expand`](Self::expand)).
    pub fn pack(items: &[(u32, PkaPayload)]) -> SessionFrame {
        let mut trails = TrailTable::distinct();
        let mut entries = Entries::default();
        let mut interned: HashMap<&[NodeId], u32> = HashMap::new();
        for (slot, payload) in items {
            let trail = payload.trail();
            let trail_id = *interned
                .entry(trail)
                .or_insert_with(|| trails.push_row(trail, None));
            match payload {
                PkaPayload::DealerValue { value, .. } => {
                    entries.push_value(trail_id, *slot, *value);
                }
                PkaPayload::Knowledge {
                    node,
                    view,
                    structure,
                    ..
                } => {
                    entries.push_knowledge(SessionEntry::Knowledge {
                        node: *node,
                        claim: Arc::new(Claim::new(view.clone(), structure.clone())),
                        trail: trail_id,
                    });
                }
            }
        }
        SessionFrame::from_table(trails, entries.finish())
    }

    /// Fails on the first entry whose trail index is outside the table.
    fn check_trail_indices(&self) -> Result<(), String> {
        match self
            .entries()
            .iter()
            .map(SessionEntry::trail)
            .find(|&t| t as usize >= self.trails().len())
        {
            Some(t) => Err(format!("entry references missing trail {t}")),
            None => Ok(()),
        }
    }

    /// The frame's logical `(slot, message)`s, borrowed in place and in
    /// entry order — the order [`expand`](Self::expand) defines.
    pub(crate) fn messages(&self) -> Result<impl Iterator<Item = (u32, Message<'_>)>, String> {
        self.check_trail_indices()?;
        Ok(self.entries().iter().flat_map(move |entry| {
            let trail = &self.trails()[entry.trail() as usize];
            let count = match entry {
                SessionEntry::Values { values, .. } => values.len(),
                SessionEntry::Knowledge { .. } => 1,
            };
            (0..count).map(move |i| match entry {
                SessionEntry::Values {
                    first_slot, values, ..
                } => (
                    first_slot + i as u32,
                    Message::Value {
                        value: values[i],
                        trail,
                    },
                ),
                SessionEntry::Knowledge { node, claim, .. } => (
                    0,
                    Message::Knowledge {
                        node: *node,
                        claim,
                        trail,
                    },
                ),
            })
        }))
    }

    /// Expands the frame back to per-message `(slot, payload)` logical
    /// messages, in entry order — the exact multiset (and order) the
    /// per-message protocol would have put on this link. `Knowledge`
    /// messages carry slot `0` (they are payload-independent).
    ///
    /// Fails only when an entry references a trail index outside the table
    /// (impossible for decoded frames — the decoder validates indices — but
    /// hand-built frames are checked rather than trusted).
    pub fn expand(&self) -> Result<Vec<(u32, PkaPayload)>, String> {
        Ok(self
            .messages()?
            .map(|(slot, message)| (slot, message.to_payload()))
            .collect())
    }

    /// One relay round in frame form: every valid message of `inbox`
    /// (`(sender, frame)` pairs, in delivery order) forwarded with `me`
    /// appended to its trail, batched into one frame. A frame with an entry
    /// referencing a missing trail is dropped whole and counted in
    /// `invalid`.
    ///
    /// The result equals [`pack`](Self::pack) of the
    /// [`expand`](Self::expand)ed messages that pass the per-message
    /// protocol's trail check (`tail = sender`, `me ∉ trail`), each with `me`
    /// appended — but it is computed on the trail tables: validity depends
    /// only on the trail, so it is tested once per trail; `trail ‖ me` gets
    /// the next output id on first reference, in inbox order; empty value
    /// runs (no message, so never interned by `pack`) are skipped; each kept
    /// value run is shared with the inbox entry, and a fresh run is built
    /// only where `pack`'s rule coalesces it with the previous output entry;
    /// and each kept knowledge entry shares the inbox entry's claim. Both
    /// shares are reference-count bumps, not copies.
    ///
    /// Two kept trails can be equal only if they come from one sender, since
    /// a valid trail ends at its sender. So a trail is interned by content
    /// only when its sender has more than one frame in the inbox (a delayed
    /// or duplicated delivery) or its frame's table repeats a row; that map
    /// keeps std's keyed hasher, since the trails are chosen by the senders,
    /// the adversary's included. Every other kept trail is looked up in a
    /// per-frame row map, one buffer reused across the inbox. The output
    /// rows are distinct either way, and the trail table and entry list grow
    /// as they fill: they live as long as the frame, and an up-front size
    /// would keep room for every trail and entry the trail check drops.
    pub fn relay<'a>(
        me: NodeId,
        inbox: impl IntoIterator<Item = (NodeId, &'a SessionFrame), IntoIter: Clone>,
        invalid: &mut u64,
    ) -> SessionFrame {
        let inbox = inbox.into_iter();
        let mut senders: Vec<NodeId> = inbox.clone().map(|(from, _)| from).collect();
        senders.sort_unstable();
        let mut trails = TrailTable::distinct();
        let mut entries = Entries::default();
        // Output trail ids of the trails interned by content, keyed by the
        // incoming trail (`trail ‖ me` is injective in `trail`).
        let mut interned: HashMap<&'a [NodeId], u32> = HashMap::new();
        // Per incoming row of the current frame: `None` until first
        // referenced, then `Some(None)` if it fails the trail check, else
        // its output id.
        let mut fate: Vec<Option<Option<u32>>> = Vec::new();
        for (from, frame) in inbox {
            if frame.check_trail_indices().is_err() {
                *invalid += 1;
                continue;
            }
            let table = frame.trails();
            let first = senders.partition_point(|&s| s < from);
            let by_content = senders.get(first + 1) == Some(&from) || !table.is_distinct();
            fate.clear();
            fate.resize(table.len(), None);
            for entry in frame.entries() {
                if matches!(entry, SessionEntry::Values { values, .. } if values.is_empty()) {
                    continue;
                }
                let t = entry.trail() as usize;
                let kept = *fate[t].get_or_insert_with(|| {
                    let trail = &table[t];
                    valid_arrival(trail, from, me).then(|| {
                        if by_content {
                            *interned
                                .entry(trail)
                                .or_insert_with(|| trails.push_row(trail, Some(me)))
                        } else {
                            trails.push_row(trail, Some(me))
                        }
                    })
                });
                let Some(trail_id) = kept else { continue };
                match entry {
                    SessionEntry::Values {
                        first_slot, values, ..
                    } => entries.push_run(trail_id, *first_slot, values),
                    SessionEntry::Knowledge { node, claim, .. } => {
                        entries.push_knowledge(SessionEntry::Knowledge {
                            node: *node,
                            claim: Arc::clone(claim),
                            trail: trail_id,
                        })
                    }
                }
            }
        }
        SessionFrame::from_table(trails, entries.finish())
    }

    /// The frame's cost in the *model layer*: `(messages, bits)` of the
    /// per-message representation it batches, using the same accounting as
    /// [`PkaPayload::encoded_bits`]. This is what makes a batch-size-1
    /// session counter-identical to the per-message `Runner` — and what the
    /// amortized-vs-naive columns of E16 compare against. A knowledge entry
    /// reads its claim's cached [`Claim::model_bits`], the formula
    /// `PkaPayload` bills too.
    ///
    /// Entries referencing a missing trail (hand-built frames only) are
    /// costed with trail length 0.
    pub fn model_cost(&self) -> (u64, u64) {
        let trail_bits = |idx: u32| -> u64 {
            (self.trails().get(idx as usize).map_or(0, <[NodeId]>::len) * MODEL_ID_BITS) as u64
        };
        let mut msgs = 0u64;
        let mut bits = 0u64;
        for entry in self.entries() {
            match entry {
                SessionEntry::Values { trail, values, .. } => {
                    msgs += values.len() as u64;
                    bits += (MODEL_VALUE_BITS as u64 + trail_bits(*trail)) * values.len() as u64;
                }
                SessionEntry::Knowledge { claim, trail, .. } => {
                    msgs += 1;
                    bits += claim.model_bits() as u64 + trail_bits(*trail);
                }
            }
        }
        (msgs, bits)
    }

    fn encode_body(&self, out: &mut impl Sink) {
        out.varint(self.trails().len() as u64);
        let mut prev: &[NodeId] = &[];
        for trail in self.trails().iter() {
            let shared = shared_prefix(prev, trail);
            out.varint(shared as u64);
            let suffix = &trail[shared..];
            wire::encode_nodes(suffix.len(), suffix.iter().copied(), out);
            prev = trail;
        }
        out.varint(self.entries().len() as u64);
        for entry in self.entries() {
            match entry {
                SessionEntry::Values {
                    trail,
                    first_slot,
                    values,
                } => {
                    out.byte(TAG_VALUES);
                    out.varint(u64::from(*trail));
                    out.varint(u64::from(*first_slot));
                    values.encode(out);
                }
                SessionEntry::Knowledge { node, claim, trail } => {
                    out.byte(TAG_KNOWLEDGE);
                    wire::encode_knowledge(*node, out, |out| claim.encode(out));
                    out.varint(u64::from(*trail));
                }
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<SessionFrame, String> {
        let pos = &mut 0usize;
        let n_trails = wire::read_len(body, pos, "trail count", 2)?;
        let mut trails = TrailTable {
            ends: Vec::with_capacity(n_trails),
            ..TrailTable::default()
        };
        let mut prev = 0..0;
        for i in 0..n_trails {
            let shared = wire::read_u64(body, pos, "trail shared prefix")? as usize;
            if shared > prev.len() {
                return Err(format!(
                    "trail {i} shares a {shared}-node prefix but the previous trail has {}",
                    prev.len()
                ));
            }
            let start = trails.nodes.len();
            trails
                .nodes
                .extend_from_within(prev.start..prev.start + shared);
            wire::decode_nodes(body, pos, "trail node", |v| trails.nodes.push(v))?;
            trails.end_row();
            prev = start..trails.nodes.len();
        }
        let n_entries = wire::read_len(body, pos, "entry count", 1)?;
        let mut entries = Vec::with_capacity(n_entries);
        let trail_idx = |body: &[u8], pos: &mut usize| -> Result<u32, String> {
            let idx = wire::read_u32(body, pos, "trail index")?;
            if idx as usize >= n_trails {
                return Err(format!(
                    "entry references trail {idx} but the table has {n_trails}"
                ));
            }
            Ok(idx)
        };
        for _ in 0..n_entries {
            match wire::read_byte(body, pos, "entry tag")? {
                TAG_VALUES => {
                    let trail = trail_idx(body, pos)?;
                    let first_slot = wire::read_u32(body, pos, "first slot")?;
                    let count = wire::read_len(body, pos, "value count", 1)?;
                    if u64::from(first_slot) + count as u64 > u64::from(u32::MAX) {
                        return Err(format!(
                            "value run {first_slot}+{count} overflows the slot range"
                        ));
                    }
                    let mut values = Vec::with_capacity(count);
                    for _ in 0..count {
                        values.push(wire::read_u64(body, pos, "value")?);
                    }
                    entries.push(SessionEntry::Values {
                        trail,
                        first_slot,
                        values: values.into(),
                    });
                }
                TAG_KNOWLEDGE => {
                    let (node, view, structure) = wire::decode_knowledge(body, pos)?;
                    let trail = trail_idx(body, pos)?;
                    entries.push(SessionEntry::Knowledge {
                        node,
                        claim: Arc::new(Claim::new(view, structure)),
                        trail,
                    });
                }
                other => return Err(format!("unknown session entry tag {other}")),
            }
        }
        if *pos != body.len() {
            return Err(format!(
                "frame body has {} trailing bytes after the last entry",
                body.len() - *pos
            ));
        }
        Ok(SessionFrame::from_table(trails, entries))
    }
}

impl Default for SessionFrame {
    fn default() -> Self {
        SessionFrame::new()
    }
}

/// Prints the body exactly as a derived `Debug` on a plain
/// `SessionFrame { trails, entries }` struct does, so event streams that
/// carry `format!("{frame:?}")` do not depend on the handle.
impl fmt::Debug for SessionFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionFrame")
            .field("trails", &self.0.trails)
            .field("entries", &self.0.entries)
            .finish()
    }
}

/// Body equality: the cached wire size is derived, so it takes no part.
impl PartialEq for SessionFrame {
    fn eq(&self, other: &Self) -> bool {
        self.trails() == other.trails() && self.entries() == other.entries()
    }
}

/// A frame's entry list under construction, with `pack`'s coalescing rule:
/// a nonempty value run extends the previous entry when that is a run over
/// the same trail ending right before the new run's first slot.
///
/// The last value run stays open until an entry that cannot join it
/// arrives, so a chain of joins copies each value once. An inbox run that
/// joins nothing is kept as the shared run it came in.
#[derive(Default)]
struct Entries {
    closed: Vec<SessionEntry>,
    open: Option<OpenRun>,
}

/// The last value run of an [`Entries`].
struct OpenRun {
    trail: u32,
    first_slot: u32,
    values: Run,
}

enum Run {
    /// An inbox run, not joined (yet).
    Shared(ValueRun),
    /// Runs joined into fresh values.
    Joined(Vec<Value>),
}

impl Run {
    fn as_slice(&self) -> &[Value] {
        match self {
            Run::Shared(run) => run,
            Run::Joined(values) => values,
        }
    }
}

impl Entries {
    /// Appends `values` to the open run if `pack` would coalesce them.
    fn join(&mut self, trail: u32, first_slot: u32, values: &[Value]) -> bool {
        let Some(open) = &mut self.open else {
            return false;
        };
        let len = open.values.as_slice().len() as u64;
        if open.trail != trail || u64::from(open.first_slot) + len != u64::from(first_slot) {
            return false;
        }
        match &mut open.values {
            Run::Shared(run) => open.values = Run::Joined([run, values].concat()),
            Run::Joined(joined) => joined.extend_from_slice(values),
        }
        true
    }

    fn push_value(&mut self, trail: u32, slot: u32, value: Value) {
        if !self.join(trail, slot, std::slice::from_ref(&value)) {
            self.reopen(trail, slot, Run::Joined(vec![value]));
        }
    }

    /// Appends a nonempty value run.
    fn push_run(&mut self, trail: u32, first_slot: u32, run: &ValueRun) {
        if !self.join(trail, first_slot, run) {
            self.reopen(trail, first_slot, Run::Shared(run.clone()));
        }
    }

    fn push_knowledge(&mut self, entry: SessionEntry) {
        self.close();
        self.closed.push(entry);
    }

    fn reopen(&mut self, trail: u32, first_slot: u32, values: Run) {
        self.close();
        self.open = Some(OpenRun {
            trail,
            first_slot,
            values,
        });
    }

    fn close(&mut self) {
        if let Some(open) = self.open.take() {
            self.closed.push(SessionEntry::Values {
                trail: open.trail,
                first_slot: open.first_slot,
                values: match open.values {
                    Run::Shared(run) => run,
                    Run::Joined(values) => values.into(),
                },
            });
        }
    }

    fn finish(mut self) -> Vec<SessionEntry> {
        self.close();
        self.closed
    }
}

/// The longest common prefix of two trails, in nodes.
fn shared_prefix(a: &[NodeId], b: &[NodeId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Payload for SessionFrame {
    /// The *actual* encoded size — the compact codec is the wire format, so
    /// wire accounting bills real bytes, not the per-message estimate
    /// (which [`model_cost`](SessionFrame::model_cost) reports separately).
    ///
    /// Sized by a counting pass over the encoder, without allocating, on
    /// the first call for the shared body; every clone then reads the
    /// cached size. The pass walks the trail table but reads each claim's
    /// and each value run's cached length (counting it on the first pass
    /// that meets it), so an entry already sized costs O(1). Panics like
    /// [`encode`](WirePayload::encode) if the body outgrows
    /// [`MAX_FRAME_BYTES`](framing::MAX_FRAME_BYTES), on every call, since a
    /// panicking sizing pass caches nothing.
    fn encoded_bits(&self) -> usize {
        *self
            .0
            .bits
            .get_or_init(|| framing::framed_len(wire::encoded_len(|out| self.encode_body(out))) * 8)
    }
}

impl WirePayload for SessionFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        let mark = framing::begin_frame(out);
        self.encode_body(out);
        framing::end_frame(out, mark);
    }

    fn decode(bytes: &[u8]) -> Result<(Self, usize), String> {
        let (body, used) = framing::split_frame(bytes).map_err(|e| e.to_string())?;
        let frame = Self::decode_body(body)?;
        Ok((frame, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::Graph;
    use rmt_sets::NodeSet;

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn sample() -> SessionFrame {
        SessionFrame::from_parts(
            vec![
                vec![0.into()],
                vec![0.into(), 1.into()],
                vec![0.into(), 1.into(), 4.into()],
            ],
            vec![
                SessionEntry::Values {
                    trail: 1,
                    first_slot: 0,
                    values: vec![7, 8, 9].into(),
                },
                SessionEntry::Knowledge {
                    node: 1.into(),
                    claim: Arc::new(Claim::new(
                        diamond(),
                        AdversaryStructure::from_sets([set(&[2]), set(&[1, 3])]),
                    )),
                    trail: 2,
                },
                SessionEntry::Values {
                    trail: 0,
                    first_slot: 5,
                    values: vec![u64::MAX].into(),
                },
            ],
        )
    }

    #[test]
    fn wire_round_trip() {
        let frame = sample();
        let bytes = frame.to_bytes();
        assert_eq!(SessionFrame::from_bytes(&bytes), Ok(frame.clone()));
        let (back, used) = SessionFrame::decode(&bytes).expect("decode");
        assert_eq!(back, frame);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn pack_expand_round_trip_preserves_order_and_slots() {
        let items: Vec<(u32, PkaPayload)> = vec![
            (
                0,
                PkaPayload::DealerValue {
                    value: 7,
                    trail: vec![0.into(), 1.into()],
                },
            ),
            (
                1,
                PkaPayload::DealerValue {
                    value: 8,
                    trail: vec![0.into(), 1.into()],
                },
            ),
            (
                0,
                PkaPayload::Knowledge {
                    node: 1.into(),
                    view: diamond(),
                    structure: AdversaryStructure::from_sets([set(&[2])]),
                    trail: vec![1.into()],
                },
            ),
            // Non-consecutive slot on the same trail: a second run.
            (
                5,
                PkaPayload::DealerValue {
                    value: 9,
                    trail: vec![0.into(), 1.into()],
                },
            ),
        ];
        let frame = SessionFrame::pack(&items);
        assert_eq!(frame.trails().len(), 2); // the two distinct trails interned
        assert_eq!(frame.entries().len(), 3); // slots 0..2 coalesced into one run
        assert_eq!(frame.expand().expect("expand"), items);
    }

    #[test]
    fn batching_amortizes_wire_bytes() {
        let one = SessionFrame::pack(&[(
            0,
            PkaPayload::DealerValue {
                value: 7,
                trail: vec![0.into(), 1.into(), 2.into()],
            },
        )]);
        let many_items: Vec<(u32, PkaPayload)> = (0..64)
            .map(|slot| {
                (
                    slot,
                    PkaPayload::DealerValue {
                        value: 7,
                        trail: vec![0.into(), 1.into(), 2.into()],
                    },
                )
            })
            .collect();
        let many = SessionFrame::pack(&many_items);
        // 64 payloads cost far less than 64 single-payload frames.
        assert!(many.encoded_bits() < 8 * one.encoded_bits());
    }

    #[test]
    fn model_cost_matches_per_message_accounting() {
        let frame = sample();
        let expanded = frame.expand().expect("expand");
        let msgs = expanded.len() as u64;
        let bits: u64 = expanded.iter().map(|(_, p)| p.encoded_bits() as u64).sum();
        assert_eq!(frame.model_cost(), (msgs, bits));
    }

    #[test]
    fn decoded_distinctness_is_checked_only_when_asked() {
        let frame = SessionFrame::pack(&sample().expand().expect("expand"));
        assert_eq!(frame.trails().distinct.get(), Some(&true)); // pack records it
        assert_eq!(sample().trails().distinct.get(), None); // from_parts does not
        let decoded = SessionFrame::from_bytes(&frame.to_bytes()).expect("decode");
        assert_eq!(decoded.trails().distinct.get(), None);
        assert!(decoded.trails().is_distinct());
        assert_eq!(decoded.trails().distinct.get(), Some(&true));
    }

    #[test]
    fn front_coding_counts_suffix_nodes() {
        // A trail that extends the row before it adds only its suffix (one
        // node here) to the encoding, however long the prefix it shares.
        let ids = |r: std::ops::Range<u32>| r.map(NodeId::new).collect::<Vec<_>>();
        let bits =
            |trails: Vec<Vec<NodeId>>| SessionFrame::from_parts(trails, Vec::new()).encoded_bits();
        let added = |prefix: Vec<NodeId>, sibling: Vec<NodeId>| {
            bits(vec![prefix.clone(), sibling]) - bits(vec![prefix])
        };
        let extend = |prefix: Vec<NodeId>| {
            let mut sibling = prefix.clone();
            sibling.push(NodeId::new(40));
            added(prefix, sibling)
        };
        let suffix_only = extend(ids(0..2));
        assert_eq!(extend(ids(0..12)), suffix_only);
        // The same 13-node row with nothing in common costs its whole length.
        let mut unshared = ids(20..32);
        unshared.push(NodeId::new(40));
        assert!(added(ids(0..12), unshared) > suffix_only);
    }

    #[test]
    fn decode_rejects_malformed_input_without_panicking() {
        // Unknown entry tag.
        let mut frame_bytes = Vec::new();
        let mark = framing::begin_frame(&mut frame_bytes);
        frame_bytes.varint(0); // no trails
        frame_bytes.varint(1); // one entry
        frame_bytes.push(9); // bad tag
        framing::end_frame(&mut frame_bytes, mark);
        assert!(SessionFrame::from_bytes(&frame_bytes).is_err());

        // Entry referencing a missing trail.
        let mut body = Vec::new();
        body.varint(0); // no trails
        body.varint(1);
        body.push(TAG_VALUES);
        body.varint(0); // trail 0 of an empty table
        body.varint(0);
        body.varint(1);
        body.varint(7);
        let mut wire = Vec::new();
        let mark = framing::begin_frame(&mut wire);
        wire.extend_from_slice(&body);
        framing::end_frame(&mut wire, mark);
        assert!(SessionFrame::from_bytes(&wire).is_err());

        // A length bomb is caught before allocation.
        let mut bomb = Vec::new();
        let mark = framing::begin_frame(&mut bomb);
        bomb.varint(u64::from(u32::MAX)); // trail count
        framing::end_frame(&mut bomb, mark);
        assert!(SessionFrame::from_bytes(&bomb).is_err());

        // Every truncation of a valid encoding errors cleanly.
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(SessionFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }

        // Trailing garbage inside the announced body is rejected.
        let mut padded = Vec::new();
        let mark = framing::begin_frame(&mut padded);
        padded.varint(0);
        padded.varint(0);
        padded.push(0xAB);
        framing::end_frame(&mut padded, mark);
        assert!(SessionFrame::from_bytes(&padded).is_err());
    }

    #[test]
    fn clones_share_one_body_and_one_size() {
        let items: Vec<(u32, PkaPayload)> = (0..4)
            .map(|slot| {
                (
                    slot,
                    PkaPayload::DealerValue {
                        value: 7 + u64::from(slot),
                        trail: vec![0.into(), 1.into()],
                    },
                )
            })
            .collect();
        let frame = SessionFrame::pack(&items);
        let copy = frame.clone();
        assert!(std::ptr::eq(copy.trails(), frame.trails()));
        assert_eq!(copy.entries().as_ptr(), frame.entries().as_ptr());
        assert_eq!(copy, frame);
        assert_eq!(copy.to_bytes(), frame.to_bytes());
        assert_eq!(copy.encoded_bits(), frame.encoded_bits());
        assert_eq!(copy.encoded_bits(), frame.to_bytes().len() * 8);
    }

    /// The `Arc<Claim>`s of a frame's knowledge entries, in entry order.
    fn claims(frame: &SessionFrame) -> Vec<&Arc<Claim>> {
        frame
            .entries()
            .iter()
            .filter_map(|e| match e {
                SessionEntry::Knowledge { claim, .. } => Some(claim),
                SessionEntry::Values { .. } => None,
            })
            .collect()
    }

    #[test]
    fn relay_and_clone_share_knowledge_claims() {
        // `sample()` carries one knowledge entry on trail [0, 1, 4]; a second
        // frame carries the same node's claim on [0, 2].
        let first = sample();
        let second = SessionFrame::pack(&[(
            0,
            PkaPayload::Knowledge {
                node: 2.into(),
                view: diamond(),
                structure: AdversaryStructure::from_sets([set(&[1])]),
                trail: vec![0.into(), 2.into()],
            },
        )]);
        let relayed =
            SessionFrame::relay(5.into(), [(4.into(), &first), (2.into(), &second)], &mut 0);
        let inbox: Vec<&Arc<Claim>> = claims(&first).into_iter().chain(claims(&second)).collect();
        let out = claims(&relayed);
        assert_eq!(out.len(), 2);
        for (kept, came_from) in out.iter().zip(&inbox) {
            assert!(Arc::ptr_eq(kept, came_from));
        }
        let copy = relayed.clone();
        for (a, b) in claims(&copy).iter().zip(&out) {
            assert!(Arc::ptr_eq(a, b));
        }
        // Sharing changes no byte.
        assert_eq!(
            relayed.to_bytes(),
            SessionFrame::pack(&relayed.expand().expect("expand")).to_bytes()
        );
    }

    /// The value runs of a frame's entries, in entry order.
    fn runs(frame: &SessionFrame) -> Vec<&ValueRun> {
        frame
            .entries()
            .iter()
            .filter_map(|e| match e {
                SessionEntry::Values { values, .. } => Some(values),
                SessionEntry::Knowledge { .. } => None,
            })
            .collect()
    }

    #[test]
    fn relay_shares_value_runs() {
        // `sample()`'s runs ride [0, 1] and [0]; relayed by 5 from 1, only
        // the [0, 1] run is kept, and it is the inbox's allocation.
        let inbox = sample();
        let relayed = SessionFrame::relay(5.into(), [(1.into(), &inbox)], &mut 0);
        let out = runs(&relayed);
        assert_eq!(out.len(), 1);
        assert!(Arc::ptr_eq(&out[0].values, &runs(&inbox)[0].values));
        assert_eq!(
            relayed.to_bytes(),
            SessionFrame::pack(&relayed.expand().expect("expand")).to_bytes()
        );
    }

    #[test]
    fn relay_builds_a_fresh_run_only_where_runs_join() {
        // Two frames from 1, each with a run over [0, 1]: slots 0..2 and
        // 2..4 join, as `pack` would; slots 9.. do not.
        let frame = |first_slot: u32, values: Vec<Value>| {
            SessionFrame::from_parts(
                vec![vec![0.into(), 1.into()]],
                vec![SessionEntry::Values {
                    trail: 0,
                    first_slot,
                    values: values.into(),
                }],
            )
        };
        let (a, b, c) = (
            frame(0, vec![7, 8]),
            frame(2, vec![9, 10]),
            frame(9, vec![11]),
        );
        let before: Vec<Vec<u8>> = [&a, &b, &c].iter().map(|f| f.to_bytes()).collect();
        let relayed = SessionFrame::relay(
            5.into(),
            [(1.into(), &a), (1.into(), &b), (1.into(), &c)],
            &mut 0,
        );
        let out = runs(&relayed);
        assert_eq!(out.len(), 2);
        assert_eq!(**out[0], [7, 8, 9, 10]);
        assert!(!Arc::ptr_eq(&out[0].values, &runs(&a)[0].values));
        assert!(Arc::ptr_eq(&out[1].values, &runs(&c)[0].values));
        // The inbox frames are untouched.
        assert_eq!(**runs(&a)[0], [7, 8]);
        assert_eq!(**runs(&b)[0], [9, 10]);
        let after: Vec<Vec<u8>> = [&a, &b, &c].iter().map(|f| f.to_bytes()).collect();
        assert_eq!(after, before);
        assert_eq!(relayed.encoded_bits(), 8 * relayed.to_bytes().len());
        let expanded: Vec<(u32, PkaPayload)> = [&a, &b, &c]
            .iter()
            .flat_map(|f| f.expand().expect("expand"))
            .map(|(slot, mut payload)| {
                if let PkaPayload::DealerValue { trail, .. } = &mut payload {
                    trail.push(5.into());
                }
                (slot, payload)
            })
            .collect();
        assert_eq!(relayed, SessionFrame::pack(&expanded));
    }

    #[test]
    fn debug_prints_the_plain_struct_form() {
        let mut view = Graph::new();
        view.add_edge(0.into(), 1.into());
        let frame = SessionFrame::from_parts(
            vec![vec![0.into()], vec![0.into(), 1.into()]],
            vec![
                SessionEntry::Values {
                    trail: 1,
                    first_slot: 2,
                    values: vec![7, 8].into(),
                },
                SessionEntry::Knowledge {
                    node: 1.into(),
                    claim: Arc::new(Claim::new(view, AdversaryStructure::from_sets([set(&[2])]))),
                    trail: 0,
                },
            ],
        );
        assert_eq!(
            format!("{frame:?}"),
            "SessionFrame { trails: [[NodeId(0)], [NodeId(0), NodeId(1)]], \
             entries: [Values { trail: 1, first_slot: 2, values: [7, 8] }, \
             Knowledge { node: NodeId(1), \
             view: Graph(2 nodes, 1 edges: [(NodeId(0), NodeId(1))]), \
             structure: AdversaryStructure([{2}]), trail: 0 }] }"
        );
    }

    #[test]
    fn oversized_frame_builds_lazily_and_sizing_panics_every_time() {
        // u64::MAX costs 10 varint bytes: one run more than fills the cap.
        let run = vec![u64::MAX; framing::MAX_FRAME_BYTES / 10 + 1];
        let entries = vec![SessionEntry::Values {
            trail: 0,
            first_slot: 0,
            values: run.into(),
        }];
        let frame = SessionFrame::from_parts(vec![vec![0.into()]], entries);
        let copy = frame.clone();
        assert_eq!(copy, frame);
        assert_eq!(
            SessionFrame::from_parts(
                frame.trails().iter().map(<[NodeId]>::to_vec).collect(),
                frame.entries().to_vec()
            ),
            frame
        );
        assert_eq!(
            frame.messages().expect("trail indices valid").count(),
            framing::MAX_FRAME_BYTES / 10 + 1
        );
        let size_panic = |f: &SessionFrame| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.encoded_bits()))
                .expect_err("an oversized frame must not size");
            err.downcast::<String>()
                .map(|m| *m)
                .expect("formatted message")
        };
        let first = size_panic(&frame);
        assert!(
            first.starts_with("encoded frame body (")
                && first.ends_with(") exceeds MAX_FRAME_BYTES"),
            "{first}"
        );
        assert_eq!(size_panic(&frame), first);
        assert_eq!(size_panic(&copy), first);
    }

    /// FNV-1a, 64-bit: a dependency-free digest for pinning byte streams.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A seeded random frame. Node ids reach past 127 and values span the
    /// whole `u64` range, so multi-byte varints appear throughout.
    fn random_frame(rng: &mut impl Rng) -> SessionFrame {
        let node = |rng: &mut dyn RngCore| NodeId::new((rng.next_u64() % 300) as u32);
        let n_trails = rng.random_range(1usize..5);
        let mut trails: Vec<Vec<NodeId>> = Vec::with_capacity(n_trails);
        for _ in 0..n_trails {
            // Half the trails extend their predecessor, exercising front-coding.
            let mut trail = match trails.last() {
                Some(prev) if rng.random_bool(0.5) => prev.clone(),
                _ => Vec::new(),
            };
            for _ in 0..rng.random_range(0usize..5) {
                trail.push(node(rng));
            }
            trails.push(trail);
        }
        let entries = (0..rng.random_range(0usize..6))
            .map(|_| {
                let trail = rng.random_range(0..n_trails as u32);
                if rng.random_bool(0.5) {
                    SessionEntry::Values {
                        trail,
                        first_slot: rng.random_range(0u32..100_000),
                        values: (0..rng.random_range(1usize..5))
                            .map(|_| rng.next_u64() >> rng.random_range(0u32..64))
                            .collect::<Vec<_>>()
                            .into(),
                    }
                } else {
                    let mut view = Graph::new();
                    for _ in 0..rng.random_range(0usize..6) {
                        view.add_node(node(rng));
                    }
                    let nodes: Vec<NodeId> = view.nodes().iter().collect();
                    if nodes.len() > 1 {
                        for _ in 0..rng.random_range(0usize..8) {
                            let u = nodes[rng.random_range(0..nodes.len())];
                            let v = nodes[rng.random_range(0..nodes.len())];
                            if u != v {
                                view.add_edge(u, v);
                            }
                        }
                    }
                    let structure =
                        AdversaryStructure::from_sets((0..rng.random_range(0usize..4)).map(|_| {
                            (0..rng.random_range(0usize..4))
                                .map(|_| node(rng))
                                .collect::<NodeSet>()
                        }));
                    SessionEntry::Knowledge {
                        node: node(rng),
                        claim: Arc::new(Claim::new(view, structure)),
                        trail,
                    }
                }
            })
            .collect();
        SessionFrame::from_parts(trails, entries)
    }

    /// The session wire format is pinned: `sample()`'s exact bytes and a
    /// digest over 256 seeded random frames, knowledge entries included.
    /// Any change to these bytes breaks `stream`, `faults` and `rmt-netd`
    /// peers running the previous format.
    #[test]
    fn session_bytes_are_pinned() {
        #[rustfmt::skip]
        let sample_bytes: [u8; 59] = [
            55, 0, 0, 0, 3, 0, 1, 0, 1, 1, 1, 2, 1, 4, 3, 0, 1, 0, 3, 7, 8, 9, 1, 1, 4, 0, 1, 2, 3, 4,
            0, 1, 0, 2, 1, 3, 2, 3, 2, 1, 2, 2, 1, 3, 2, 0, 0, 5, 1, 255, 255, 255, 255, 255, 255,
            255, 255, 255, 1,
        ];
        assert_eq!(sample().to_bytes(), sample_bytes);
        let mut rng = ChaCha12Rng::seed_from_u64(0x05E5_510F);
        let mut stream = Vec::new();
        let mut knowledge = 0;
        for _ in 0..256 {
            let frame = random_frame(&mut rng);
            knowledge += frame
                .entries()
                .iter()
                .filter(|e| matches!(e, SessionEntry::Knowledge { .. }))
                .count();
            stream.extend_from_slice(&frame.to_bytes());
        }
        assert!(knowledge > 100, "{knowledge} knowledge entries");
        assert_eq!(
            (stream.len(), fnv1a(&stream)),
            (16_850, 0x3950_1a57_5dc7_446f)
        );
    }

    #[test]
    fn shared_prefix_beyond_previous_trail_is_rejected() {
        let mut body = Vec::new();
        body.varint(1); // one trail
        body.varint(3); // shares 3 nodes with a non-existent predecessor
        body.varint(0);
        body.varint(0); // no entries
        let mut wire = Vec::new();
        let mark = framing::begin_frame(&mut wire);
        wire.extend_from_slice(&body);
        framing::end_frame(&mut wire, mark);
        assert!(SessionFrame::from_bytes(&wire).is_err());
    }
}
