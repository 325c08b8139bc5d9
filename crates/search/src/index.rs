//! Inverted index over opening posts.
//!
//! Documents are the corpus's opening posts (title + body + tags),
//! which is what a search engine of the paper's era would index of a
//! blog or forum. Postings store term frequencies; document lengths
//! feed BM25's length normalization.
//!
//! The index is maintainable in place: documents can be added and
//! removed one at a time, or a batch of change-sets at once through
//! [`InvertedIndex::apply_deltas`], and an incremental history of
//! adds/removes converges to exactly the index a from-scratch
//! [`InvertedIndex::build`] produces. Removals go through
//! *tombstones*: the document's statistics disappear immediately,
//! while its postings are swept out by a generation-aware compaction
//! pass that runs once per batch and touches each affected term list
//! at most once.
//!
//! Documents live in a dense **doc table**: each gets a local `u32`
//! ordinal naming its row (post, source, length, tombstone flag) and
//! forward-index span, and postings carry ordinals. An ordinal
//! returns to the free list only in the sweep that removes its
//! postings, so a later add in the same batch cannot take a row
//! whose stale postings that sweep still has to drop.
//!
//! Terms are *interned*: a term dictionary maps each live term to a
//! `u32` id, posting lists are stored by id, and the forward index
//! records ids rather than strings, all in one flat **arena**: each
//! row's ids are a span of it. A sweep zeroes a removed row's span
//! and counts its words dead; once dead words outnumber live ones,
//! the sweep rewrites the arena with the live spans only, so the
//! arena stays within twice the live words at an amortized O(1) per
//! word.
//!
//! Epochs share what a batch does not touch: each posting list and
//! the term dictionary sit behind an [`Arc`], so cloning the index —
//! the copy-on-write detach every published epoch pays — copies the
//! flat tables (doc table, spans, arena, `ordinal_of`) and two
//! pointer tables. A batch copies a list only when its adds or its
//! sweep touch it, at most once ([`InvertedIndex::apply_shared`]),
//! and the dictionary only when it interns or retires a term.

#![warn(clippy::indexing_slicing)]

use crate::token::for_each_token;
use obs_model::codec::{DecodeError, Reader, Writer};
use obs_model::{document_text, Corpus, CorpusDelta, PostId, SourceId};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

/// A posting: document ordinal and term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Doc-table ordinal ([`InvertedIndex::post_of`] maps it to its post).
    pub ord: u32,
    /// Term frequency in the document.
    pub tf: u32,
}

/// One term's postings, in insertion order, plus the compaction
/// generation that last swept it, so a batched commit never rescans
/// a list twice.
#[derive(Debug, Default)]
struct PostingList {
    /// The term this list belongs to (the reverse of its dictionary
    /// entry, so an emptied list can retire its id); empty on a free
    /// slot.
    term: String,
    entries: Vec<Posting>,
    clean_gen: u64,
}

impl PostingList {
    /// Copies `source` into this list's buffers, growing only those
    /// too small: un-sharing a list into a recycled one reuses it.
    fn copy_from(&mut self, source: &PostingList) {
        let PostingList {
            term,
            entries,
            clean_gen,
        } = source;
        self.term.clone_from(term);
        self.entries.clone_from(entries);
        self.clean_gen = *clean_gen;
    }
}

/// One row of the doc table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DocRow {
    pub(crate) post: PostId,
    pub(crate) source: SourceId,
    /// Token length.
    pub(crate) len: u32,
    /// Set from removal until reuse; no posting names a flagged row
    /// once the sweep has run.
    tombstoned: bool,
}

// The dense scorer reads one row per posting.
const _: () = assert!(size_of::<DocRow>() == 16);

/// One row's slice of the forward-index arena; empty on a free row.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Scratch for staging a batch of documents, dropped with the batch
/// (a field of [`InvertedIndex`] would have to be copied by every
/// detach).
#[derive(Debug, Default)]
struct Staging {
    /// The token being built.
    token: String,
    /// The staged document's frequency of each term, by term id;
    /// all zero between documents.
    tf: Vec<u32>,
    /// The staged document's distinct term ids, in first-occurrence
    /// order.
    terms: Vec<u32>,
    cow: Unshared,
}

/// What one batch un-shared: the lists it owns and the buffers it
/// may copy into.
#[derive(Debug, Default)]
struct Unshared {
    /// The lists this batch owns, by term id: each is taken out of
    /// its `Arc` on first touch, so the batch pushes and sweeps into
    /// it with no uniqueness check, and [`InvertedIndex::put_back`]
    /// returns it.
    lists: Vec<Option<PostingList>>,
    /// The recycled epoch's own lists its detach replaced, by term id:
    /// un-sharing a slot copies into that slot's old buffer.
    displaced: Vec<Option<Arc<PostingList>>>,
    /// The recycled epoch's own dictionary, if its detach replaced it.
    displaced_terms: Option<Arc<HashMap<String, u32>>>,
    /// Element bytes the batch copied, counted as
    /// [`InvertedIndex::heap_bytes`] counts them.
    copied: usize,
}

impl Unshared {
    /// The batch's own copy of list `id`, taken on first touch
    /// ([`Unshared::take`]). `None` only for an id past `lists`.
    fn list<'a>(
        &'a mut self,
        lists: &mut [Arc<PostingList>],
        id: u32,
    ) -> Option<&'a mut PostingList> {
        let id = id as usize;
        if !matches!(self.lists.get(id), Some(Some(_))) {
            self.take(lists, id);
        }
        self.lists.get_mut(id)?.as_mut()
    }

    /// Takes list `id` for the batch: moved out of `lists` if no other
    /// epoch holds it, else copied (into the displaced buffer of the
    /// same slot when there is one).
    #[cold]
    fn take(&mut self, lists: &mut [Arc<PostingList>], id: usize) {
        let Some(shared) = lists.get_mut(id) else {
            return;
        };
        let list = match Arc::get_mut(shared) {
            Some(list) => std::mem::take(list),
            None => {
                self.copied += shared.entries.len() * size_of::<Posting>();
                let mut copy = self
                    .displaced
                    .get_mut(id)
                    .and_then(Option::take)
                    .and_then(|mut old| Arc::get_mut(&mut old).map(std::mem::take))
                    .unwrap_or_default();
                copy.copy_from(shared);
                copy
            }
        };
        if self.lists.len() <= id {
            self.lists.resize_with(id + 1, || None);
        }
        if let Some(owned) = self.lists.get_mut(id) {
            *owned = Some(list);
        }
    }

    /// The dictionary, un-shared on first use (into the displaced
    /// dictionary's buffers when there is one).
    fn terms<'a>(
        &mut self,
        terms: &'a mut Arc<HashMap<String, u32>>,
    ) -> &'a mut HashMap<String, u32> {
        if Arc::get_mut(terms).is_none() {
            self.copied += terms.len() * size_of::<(String, u32)>();
            if let Some(mut old) = self.displaced_terms.take() {
                if let Some(map) = Arc::get_mut(&mut old) {
                    map.clone_from(terms);
                    *terms = old;
                }
            }
        }
        Arc::make_mut(terms)
    }
}

/// What one [`InvertedIndex::apply_shared`] copied, and into whose
/// storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detach {
    /// Element bytes copied, counted as [`InvertedIndex::heap_bytes`]
    /// counts them: the flat tables if the index was shared, plus
    /// every posting list and the dictionary the batch un-shared.
    /// Zero for a batch that adds and removes no document.
    pub copied: usize,
    /// Whether a shared index was detached into the spare's storage.
    pub recycled: bool,
}

/// The inverted index.
///
/// Cloning copies the flat tables and shares every posting list and
/// the dictionary with the original; whichever of the two a batch
/// mutates copies what that batch touches, so the other never
/// observes it.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// Term dictionary: each live term's id, its slot in `lists`.
    /// Always exactly the live vocabulary — an entry leaves in the
    /// same step its posting list empties.
    term_ids: Arc<HashMap<String, u32>>,
    /// Posting lists by term id.
    lists: Vec<Arc<PostingList>>,
    /// Ids of emptied slots in `lists`, reused by the next new term.
    free_ids: Vec<u32>,
    /// The doc table, by ordinal. Kept apart from `spans` so the
    /// dense scorer's per-posting row read stays 16 bytes.
    rows: Vec<DocRow>,
    /// Forward index by ordinal: each live or pending row's span of
    /// `arena`, holding its distinct term ids, so a sweep knows
    /// exactly which posting lists it dirties.
    spans: Vec<Span>,
    arena: Vec<u32>,
    /// Arena words no span holds any more, reclaimed by
    /// `compact_arena`.
    dead_words: usize,
    ordinal_of: HashMap<PostId, u32>,
    /// Ordinals of free rows, reused by the next add.
    free_ords: Vec<u32>,
    /// Ordinals tombstoned but not yet swept. Only ever non-empty
    /// inside one mutating call, so readers never observe a stale
    /// posting.
    pending: Vec<u32>,
    total_len: u64,
    /// Compaction generation, bumped once per sweep.
    generation: u64,
}

impl InvertedIndex {
    /// Indexes every opening post of the corpus.
    pub fn build(corpus: &Corpus) -> InvertedIndex {
        let mut index = InvertedIndex::default();
        let mut staging = Staging::default();
        for post in corpus.posts() {
            let (source, text) = match document_text(corpus, post.id) {
                Ok(pair) => pair,
                Err(_) => continue,
            };
            index.stage_document(&mut staging, post.id, source, &text);
        }
        index.finish(&mut staging.cow);
        index
    }

    /// Adds one document. Re-adding a live document replaces its
    /// previous contents (update semantics).
    pub fn add_document(&mut self, doc: PostId, source: SourceId, text: &str) {
        let mut staging = Staging::default();
        self.stage_document(&mut staging, doc, source, text);
        self.finish(&mut staging.cow);
    }

    /// Adds one document, tombstoning a live document of the same id
    /// without sweeping it. Term frequencies are counted by term id
    /// in `staging`, so only a term new to the vocabulary allocates.
    fn stage_document(&mut self, staging: &mut Staging, doc: PostId, source: SourceId, text: &str) {
        self.tombstone_document(doc);
        let Staging {
            token,
            tf,
            terms,
            cow,
        } = staging;
        let mut len = 0u32;
        for_each_token(text, token, |t| {
            let id = self.intern(cow, t);
            if tf.len() <= id as usize {
                tf.resize(id as usize + 1, 0);
            }
            if let Some(count) = tf.get_mut(id as usize) {
                if *count == 0 {
                    terms.push(id);
                }
                *count += 1;
            }
            len += 1;
        });
        let row = DocRow {
            post: doc,
            source,
            len,
            tombstoned: false,
        };
        let ord = match self.free_ords.pop() {
            Some(ord) => {
                if let Some(slot) = self.rows.get_mut(ord as usize) {
                    *slot = row;
                }
                ord
            }
            // Freed ordinals are reused, so the row count is the peak
            // live document count: far below `u32::MAX` in memory.
            None => {
                self.rows.push(row);
                self.spans.push(Span::default());
                (self.rows.len() - 1) as u32
            }
        };
        self.ordinal_of.insert(doc, ord);
        self.total_len += len as u64;
        // Compaction keeps the arena within twice the live words, far
        // below `u32::MAX` for any index in memory.
        let span = Span {
            start: self.arena.len() as u32,
            len: terms.len() as u32,
        };
        for id in terms.drain(..) {
            let freq = tf.get_mut(id as usize).map_or(0, std::mem::take);
            if let Some(list) = cow.list(&mut self.lists, id) {
                list.entries.push(Posting { ord, tf: freq });
            }
            self.arena.push(id);
        }
        if let Some(slot) = self.spans.get_mut(ord as usize) {
            *slot = span;
        }
    }

    /// The id of `term`, allocating one (and an empty posting list)
    /// if the term is new to the vocabulary.
    fn intern(&mut self, cow: &mut Unshared, term: &str) -> u32 {
        if let Some(&id) = self.term_ids.get(term) {
            return id;
        }
        let id = match self.free_ids.pop() {
            Some(id) => id,
            // Freed ids are reused, so the slot count is the peak live
            // vocabulary: far below `u32::MAX` for any index in memory.
            None => {
                self.lists.push(Arc::default());
                (self.lists.len() - 1) as u32
            }
        };
        if let Some(list) = cow.list(&mut self.lists, id) {
            list.term = term.to_owned();
        }
        cow.terms(&mut self.term_ids).insert(term.to_owned(), id);
        id
    }

    /// Drops an emptied list's dictionary entry and frees its id. The
    /// slot keeps its `clean_gen`, so a sweep in progress that meets
    /// the id again skips it.
    fn retire(&mut self, cow: &mut Unshared, id: u32) {
        let Some(list) = cow.list(&mut self.lists, id) else {
            return;
        };
        let term = std::mem::take(&mut list.term);
        // Release the capacity `retain` left behind.
        list.entries = Vec::new();
        cow.terms(&mut self.term_ids).remove(&term);
        self.free_ids.push(id);
    }

    /// Removes one document, sweeping its postings immediately.
    /// Returns whether the document was present.
    pub fn remove_document(&mut self, doc: PostId) -> bool {
        let removed = self.tombstone_document(doc);
        self.finish(&mut Unshared::default());
        removed
    }

    /// Applies one change-set: the one-element case of
    /// [`InvertedIndex::apply_deltas`].
    pub fn apply_delta(&mut self, delta: &CorpusDelta) {
        self.apply_deltas(std::iter::once(delta));
    }

    /// Applies change-sets in order — each delta's removals first,
    /// then its additions, so a delta that replaces a document
    /// behaves like an update — and then sweeps once: each posting
    /// list the batch dirtied is rescanned once, however many of the
    /// batch's removals it hosted.
    pub fn apply_deltas<'a>(&mut self, deltas: impl IntoIterator<Item = &'a CorpusDelta>) {
        self.apply_staged(&mut Staging::default(), deltas);
    }

    /// [`InvertedIndex::apply_deltas`] on an index other epochs may
    /// share. A burst that adds and removes no document (empty, or
    /// engagement only) touches nothing: `index` stays shared and
    /// `spare` stays put. Otherwise a shared `index` is detached
    /// first — into `spare`'s storage when there is one (taken), a
    /// superseded epoch no one else holds, else into a fresh copy —
    /// copying the flat tables and sharing every list and the
    /// dictionary. The batch then copies each list its adds or sweep
    /// touch, once, into the spare's own buffer for that slot when it
    /// has one, and the dictionary only if it interns or retires a
    /// term.
    pub fn apply_shared<'a>(
        index: &mut Arc<InvertedIndex>,
        spare: &mut Option<InvertedIndex>,
        deltas: impl IntoIterator<Item = &'a CorpusDelta>,
    ) -> Detach {
        let mut deltas = deltas
            .into_iter()
            .filter(|d| d.touches_documents())
            .peekable();
        if deltas.peek().is_none() {
            return Detach::default();
        }
        let mut staging = Staging::default();
        let mut recycled = false;
        if Arc::get_mut(index).is_none() {
            let detached = match spare.take() {
                Some(mut target) => {
                    target.detach_from(index, &mut staging.cow);
                    recycled = true;
                    target
                }
                None => InvertedIndex::clone(index),
            };
            staging.cow.copied = detached.flat_bytes();
            *index = Arc::new(detached);
        }
        Arc::make_mut(index).apply_staged(&mut staging, deltas);
        Detach {
            copied: staging.cow.copied,
            recycled,
        }
    }

    /// The body of [`InvertedIndex::apply_deltas`], staging into
    /// `staging`.
    fn apply_staged<'a>(
        &mut self,
        staging: &mut Staging,
        deltas: impl IntoIterator<Item = &'a CorpusDelta>,
    ) {
        for delta in deltas {
            for &doc in &delta.removed {
                self.tombstone_document(doc);
            }
            for add in &delta.added {
                self.stage_document(staging, add.post, add.source, &add.text);
            }
        }
        self.finish(&mut staging.cow);
    }

    /// Makes this index — a superseded epoch no one else holds — equal
    /// to `source`: the flat tables are copied into this index's
    /// buffers, growing only those too small, and the pointer tables
    /// are cloned. Each list and the dictionary `source` does not
    /// share with this index go to `cow.displaced*`, so un-sharing
    /// that slot later reuses the buffer.
    fn detach_from(&mut self, source: &InvertedIndex, cow: &mut Unshared) {
        // Exhaustive, so a field added later fails to compile until
        // it is copied here.
        let InvertedIndex {
            term_ids,
            lists,
            free_ids,
            rows,
            spans,
            arena,
            dead_words,
            ordinal_of,
            free_ords,
            pending,
            total_len,
            generation,
        } = source;
        if !Arc::ptr_eq(&self.term_ids, term_ids) {
            cow.displaced_terms = Some(std::mem::replace(&mut self.term_ids, Arc::clone(term_ids)));
        }
        self.lists.truncate(lists.len());
        cow.displaced.clear();
        cow.displaced.resize(lists.len(), None);
        for (id, list) in lists.iter().enumerate() {
            match self.lists.get_mut(id) {
                Some(own) if !Arc::ptr_eq(own, list) => {
                    let old = std::mem::replace(own, Arc::clone(list));
                    if let Some(slot) = cow.displaced.get_mut(id) {
                        *slot = Some(old);
                    }
                }
                Some(_) => {}
                None => self.lists.push(Arc::clone(list)),
            }
        }
        self.free_ids.clone_from(free_ids);
        self.rows.clone_from(rows);
        self.spans.clone_from(spans);
        self.arena.clone_from(arena);
        self.dead_words = *dead_words;
        self.ordinal_of.clone_from(ordinal_of);
        self.free_ords.clone_from(free_ords);
        self.pending.clone_from(pending);
        self.total_len = *total_len;
        self.generation = *generation;
    }

    /// Marks a document removed without sweeping its postings:
    /// statistics (count, lengths, source) update immediately, the
    /// posting entries and the row wait for [`InvertedIndex::sweep`].
    fn tombstone_document(&mut self, doc: PostId) -> bool {
        let Some(ord) = self.ordinal_of.remove(&doc) else {
            return false;
        };
        if let Some(row) = self.rows.get_mut(ord as usize) {
            row.tombstoned = true;
            self.total_len -= row.len as u64;
        }
        self.pending.push(ord);
        true
    }

    /// Ends a batch: sweeps, then puts back every list the batch took
    /// out. Returns how many rows the sweep freed.
    fn finish(&mut self, cow: &mut Unshared) -> usize {
        let swept = self.sweep(cow);
        self.put_back(cow);
        swept
    }

    /// Returns each list `cow` owns to its slot: into the slot's own
    /// `Arc` when no other epoch holds it, else behind a new one.
    fn put_back(&mut self, cow: &mut Unshared) {
        for (slot, owned) in self.lists.iter_mut().zip(&mut cow.lists) {
            if let Some(list) = owned.take() {
                match Arc::get_mut(slot) {
                    Some(own) => *own = list,
                    None => *slot = Arc::new(list),
                }
            }
        }
    }

    /// Sweeps all pending tombstones in one generation: every posting
    /// list dirtied by at least one tombstoned document is compacted
    /// exactly once, however many documents it hosted. Only then do
    /// the tombstoned rows go back on the free list, with empty
    /// spans; the arena is compacted once its dead words outnumber
    /// its live ones.
    fn sweep(&mut self, cow: &mut Unshared) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        self.generation += 1;
        let gen = self.generation;
        let pending = std::mem::take(&mut self.pending);
        for &ord in &pending {
            let span = self
                .spans
                .get_mut(ord as usize)
                .map(std::mem::take)
                .unwrap_or_default();
            self.dead_words += span.len as usize;
            for at in span.range() {
                let Some(&id) = self.arena.get(at) else {
                    continue;
                };
                let Some(list) = cow.list(&mut self.lists, id) else {
                    continue;
                };
                if list.clean_gen < gen {
                    let rows = &self.rows;
                    list.entries
                        .retain(|p| rows.get(p.ord as usize).is_some_and(|r| !r.tombstoned));
                    list.clean_gen = gen;
                    if list.entries.is_empty() {
                        self.retire(cow, id);
                    }
                }
            }
        }
        self.free_ords.extend_from_slice(&pending);
        if self.dead_words > self.arena.len() - self.dead_words {
            self.compact_arena();
        }
        pending.len()
    }

    /// Rewrites the arena with the live spans only, in ordinal order.
    /// Runs only with no row pending, so every non-empty span is live.
    fn compact_arena(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.dead_words);
        for span in &mut self.spans {
            let start = arena.len() as u32;
            arena.extend_from_slice(self.arena.get(span.range()).unwrap_or_default());
            span.start = start;
        }
        self.arena = arena;
        self.dead_words = 0;
    }

    /// The doc table, by ordinal: what the dense scorer reads a
    /// posting's length and source from.
    pub(crate) fn rows(&self) -> &[DocRow] {
        &self.rows
    }

    /// Postings for a term (empty slice when absent), in no
    /// particular order.
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.term_ids
            .get(term)
            .and_then(|&id| self.lists.get(id as usize))
            .map_or(&[], |list| list.entries.as_slice())
    }

    /// The live post at ordinal `ord` (`None` for a tombstoned or
    /// free row).
    pub fn post_of(&self, ord: u32) -> Option<PostId> {
        let post = self.rows.get(ord as usize)?.post;
        (self.ordinal_of.get(&post) == Some(&ord)).then_some(post)
    }

    /// The ordinal of a live post.
    pub fn ordinal_of(&self, doc: PostId) -> Option<u32> {
        self.ordinal_of.get(&doc).copied()
    }

    /// Ordinals on the free list, waiting for reuse by the next add.
    pub fn free_ordinals(&self) -> &[u32] {
        &self.free_ords
    }

    /// The live row of a post.
    fn row(&self, doc: PostId) -> Option<&DocRow> {
        self.ordinal_of
            .get(&doc)
            .and_then(|&ord| self.rows.get(ord as usize))
    }

    /// Document frequency of a term.
    pub fn doc_frequency(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.ordinal_of.len()
    }

    /// A document's token length.
    pub fn doc_length(&self, doc: PostId) -> u32 {
        self.row(doc).map_or(0, |row| row.len)
    }

    /// Total token length across all live documents — the numerator
    /// of [`InvertedIndex::avg_doc_length`], exposed as an exact
    /// integer so scatter-gather scoring can sum shard statistics
    /// without floating-point drift.
    pub fn total_token_length(&self) -> u64 {
        self.total_len
    }

    /// Average document length.
    pub fn avg_doc_length(&self) -> f64 {
        if self.ordinal_of.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.ordinal_of.len() as f64
        }
    }

    /// Source hosting a document.
    pub fn source_of(&self, doc: PostId) -> Option<SourceId> {
        self.row(doc).map(|row| row.source)
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.term_ids.len()
    }

    /// Element bytes of the doc table, the forward-index spans and
    /// arena, the posting entries, the term dictionary and
    /// `ordinal_of`: what a copy of the whole index copies, spare
    /// capacity, term text and allocator overhead aside.
    pub fn heap_bytes(&self) -> usize {
        let postings: usize = self.lists.iter().map(|l| l.entries.len()).sum();
        self.flat_bytes()
            + postings * size_of::<Posting>()
            + self.term_ids.len() * size_of::<(String, u32)>()
    }

    /// The elements of [`InvertedIndex::heap_bytes`] every detach
    /// copies: the doc table, spans, arena and `ordinal_of`.
    fn flat_bytes(&self) -> usize {
        self.rows.len() * size_of::<DocRow>()
            + self.spans.len() * size_of::<Span>()
            + self.arena.len() * size_of::<u32>()
            + self.ordinal_of.len() * size_of::<(PostId, u32)>()
    }

    /// Appends this index's canonical image to `out`, in the
    /// [`obs_model::codec`] encoding:
    ///
    /// ```text
    /// index := varint(#slots) slot*  varint(#free ids) varint(id)*
    ///          varint(#rows) row*    varint(#arena) varint(id)*
    ///          varint(#free ords) varint(ord)*
    ///          varint(dead words) varint(generation)
    /// slot  := str(term) varint(#postings) (varint(ord) varint(tf))*
    /// row   := varint(post) varint(source) varint(len)
    ///          varint(span start) varint(span len)
    /// ```
    ///
    /// Posting lists go in slot order, free slots as an empty term
    /// with no postings. The term dictionary, `ordinal_of`, the total
    /// length and the tombstone flags are functions of the rest and
    /// are rebuilt by [`InvertedIndex::decode`]; so are the lists'
    /// sweep generations, which only matter inside a sweep.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        w.varint(self.lists.len() as u64);
        for list in &self.lists {
            w.str(&list.term);
            w.varint(list.entries.len() as u64);
            for p in &list.entries {
                w.varint(u64::from(p.ord));
                w.varint(u64::from(p.tf));
            }
        }
        let ids = |w: &mut Writer<'_>, ids: &[u32]| {
            w.varint(ids.len() as u64);
            for &id in ids {
                w.varint(u64::from(id));
            }
        };
        ids(&mut w, &self.free_ids);
        w.varint(self.rows.len() as u64);
        for (row, span) in self.rows.iter().zip(&self.spans) {
            w.varint(u64::from(row.post.raw()));
            w.varint(u64::from(row.source.raw()));
            w.varint(u64::from(row.len));
            w.varint(u64::from(span.start));
            w.varint(u64::from(span.len));
        }
        ids(&mut w, &self.arena);
        ids(&mut w, &self.free_ords);
        w.varint(self.dead_words as u64);
        w.varint(self.generation);
    }

    /// Decodes exactly one index image spanning all of `bytes` (see
    /// [`InvertedIndex::encode_into`]).
    ///
    /// Total, like every decoder of the codec: besides malformed
    /// bytes, every ordinal, span and term id is checked against the
    /// table it indexes — postings name live rows, spans lie inside
    /// the arena without overlapping, live rows hold live term ids,
    /// free lists name distinct free entries — and a violation is
    /// [`DecodeError::Inconsistent`], so no later add, sweep or query
    /// can index out of bounds.
    pub fn decode(bytes: &[u8]) -> Result<InvertedIndex, DecodeError> {
        let mut r = Reader::new(bytes);
        let (slots, capacity) = r.count()?;
        let mut lists = Vec::with_capacity(capacity);
        for _ in 0..slots {
            let term = r.str()?.to_owned();
            let (count, capacity) = r.count()?;
            let mut entries = Vec::with_capacity(capacity);
            for _ in 0..count {
                entries.push(Posting {
                    ord: r.varint_u32()?,
                    tf: r.varint_u32()?,
                });
            }
            lists.push(Arc::new(PostingList {
                term,
                entries,
                clean_gen: 0,
            }));
        }
        let free_ids = read_ids(&mut r)?;
        let (count, capacity) = r.count()?;
        let mut rows = Vec::with_capacity(capacity);
        let mut spans = Vec::with_capacity(capacity);
        for _ in 0..count {
            rows.push(DocRow {
                post: PostId::new(r.varint_u32()?),
                source: SourceId::new(r.varint_u32()?),
                len: r.varint_u32()?,
                tombstoned: false,
            });
            spans.push(Span {
                start: r.varint_u32()?,
                len: r.varint_u32()?,
            });
        }
        let arena = read_ids(&mut r)?;
        let free_ords = read_ids(&mut r)?;
        let dead_words = r.varint_usize()?;
        let generation = r.varint()?;
        r.finish()?;

        let mut index = InvertedIndex {
            term_ids: Arc::new(HashMap::with_capacity(lists.len())),
            lists,
            free_ids,
            rows,
            spans,
            arena,
            dead_words,
            ordinal_of: HashMap::new(),
            free_ords,
            pending: Vec::new(),
            total_len: 0,
            generation,
        };
        index.rebuild_derived()?;
        Ok(index)
    }
    /// Checks a decoded image against its own tables and rebuilds the
    /// state [`InvertedIndex::encode_into`] leaves out: the term
    /// dictionary, the tombstone flags, `ordinal_of` and the total
    /// length. Postings and forward index must name each other
    /// exactly: the term ids a row's span holds are, as a set, the
    /// lists that hold a posting of that row.
    fn rebuild_derived(&mut self) -> Result<(), DecodeError> {
        let bad = DecodeError::Inconsistent;
        let mut free_slot = vec![false; self.lists.len()];
        for &id in &self.free_ids {
            let slot = free_slot
                .get_mut(id as usize)
                .ok_or(bad("free id past the slots"))?;
            if std::mem::replace(slot, true) {
                return Err(bad("a term id freed twice"));
            }
        }
        // Postings regrouped by row (ids ascending, as the lists are
        // walked in id order): `by_row[starts[ord]..starts[ord + 1]]`.
        let mut starts = vec![0usize; self.rows.len() + 1];
        let term_ids = Arc::make_mut(&mut self.term_ids);
        for (id, (list, &free)) in self.lists.iter().zip(&free_slot).enumerate() {
            if (list.term.is_empty(), list.entries.is_empty()) != (free, free) {
                return Err(bad("a slot's term, postings and free flag disagree"));
            }
            for p in &list.entries {
                match starts.get_mut(p.ord as usize) {
                    Some(count) if (p.ord as usize) < self.rows.len() => *count += 1,
                    _ => return Err(bad("posting past the doc table")),
                }
            }
            if !free && term_ids.insert(list.term.clone(), id as u32).is_some() {
                return Err(bad("a term in two slots"));
            }
        }
        // Counts to exclusive prefix sums; the last entry is the total.
        let mut total = 0;
        for at in &mut starts {
            total += std::mem::replace(at, total);
        }
        let mut fill = starts.clone();
        let mut by_row = vec![0u32; starts.last().copied().unwrap_or(0)];
        for (id, list) in self.lists.iter().enumerate() {
            for p in &list.entries {
                if let Some(at) = fill.get_mut(p.ord as usize) {
                    if let Some(slot) = by_row.get_mut(*at) {
                        *slot = id as u32;
                    }
                    *at += 1;
                }
            }
        }
        for &ord in &self.free_ords {
            let row = self
                .rows
                .get_mut(ord as usize)
                .ok_or(bad("free ordinal past the doc table"))?;
            if std::mem::replace(&mut row.tombstoned, true) {
                return Err(bad("an ordinal freed twice"));
            }
        }
        let mut held = vec![false; self.arena.len()];
        let mut live_words = 0usize;
        let mut ids = Vec::new();
        for (ord, (row, span)) in self.rows.iter().zip(&self.spans).enumerate() {
            let words = (span.start as usize)
                .checked_add(span.len as usize)
                .and_then(|end| self.arena.get(span.start as usize..end))
                .ok_or(bad("span past the arena"))?;
            let listed = starts
                .get(ord)
                .zip(starts.get(ord + 1))
                .and_then(|(&from, &to)| by_row.get(from..to))
                .unwrap_or(&[]);
            if row.tombstoned {
                if !words.is_empty() || !listed.is_empty() {
                    return Err(bad("a free row holds words or postings"));
                }
                continue;
            }
            ids.clear();
            ids.extend_from_slice(words);
            ids.sort_unstable();
            if ids != listed || ids.windows(2).any(|pair| pair.first() == pair.last()) {
                return Err(bad("a row's words and postings disagree"));
            }
            for at in held.iter_mut().skip(span.start as usize).take(words.len()) {
                if std::mem::replace(at, true) {
                    return Err(bad("two spans overlap"));
                }
            }
            live_words += words.len();
            self.total_len += u64::from(row.len);
            if self.ordinal_of.insert(row.post, ord as u32).is_some() {
                return Err(bad("a post on two live rows"));
            }
        }
        if live_words.checked_add(self.dead_words) != Some(self.arena.len()) {
            return Err(bad("dead words do not close the arena"));
        }
        Ok(())
    }
}

/// A count-prefixed list of varint ids.
fn read_ids(r: &mut Reader<'_>) -> Result<Vec<u32>, DecodeError> {
    let (count, capacity) = r.count()?;
    let mut ids = Vec::with_capacity(capacity);
    for _ in 0..count {
        ids.push(r.varint_u32()?);
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, SourceKind, Tag, Timestamp};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions").unwrap();
        let s1 = b.add_source(SourceKind::Blog, "one", Timestamp::EPOCH);
        let s2 = b.add_source(SourceKind::Forum, "two", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        b.add_discussion_with_post(
            s1,
            cat,
            "duomo rooftop views",
            u,
            Timestamp::from_days(1),
            "the duomo rooftop is amazing",
            vec![Tag::new("duomo")],
            None,
        )
        .unwrap();
        b.add_discussion_with_post(
            s2,
            cat,
            "castle gardens",
            u,
            Timestamp::from_days(2),
            "the castle gardens are lovely",
            vec![],
            None,
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn build_indexes_every_post() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), 2);
        assert!(idx.vocabulary_size() > 4);
        assert!(idx.avg_doc_length() > 0.0);
    }

    #[test]
    fn term_frequencies_accumulate_title_body_tags() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        // "duomo" appears in title, body and tag of doc 0 → tf 3.
        let postings = idx.postings("duomo");
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0].tf, 3);
        assert_eq!(idx.doc_frequency("duomo"), 1);
        assert_eq!(idx.doc_frequency("missing"), 0);
    }

    #[test]
    fn documents_map_to_their_sources() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.source_of(PostId::new(0)), Some(SourceId::new(0)));
        assert_eq!(idx.source_of(PostId::new(1)), Some(SourceId::new(1)));
        assert_eq!(idx.source_of(PostId::new(99)), None);
    }

    #[test]
    fn stopwords_are_not_indexed() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        assert_eq!(idx.doc_frequency("the"), 0);
        assert_eq!(idx.doc_frequency("is"), 0);
    }

    #[test]
    fn removal_erases_every_trace() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        assert!(idx.remove_document(PostId::new(0)));
        assert_eq!(idx.doc_count(), 1);
        assert_eq!(idx.doc_frequency("duomo"), 0);
        assert_eq!(idx.doc_length(PostId::new(0)), 0);
        assert_eq!(idx.source_of(PostId::new(0)), None);
        // Terms exclusive to the removed doc leave the vocabulary.
        assert_eq!(idx.postings("rooftop"), &[]);
        // Removing twice is a no-op.
        assert!(!idx.remove_document(PostId::new(0)));
    }

    #[test]
    fn incremental_adds_match_full_build() {
        let c = corpus();
        let built = InvertedIndex::build(&c);
        let mut incremental = InvertedIndex::default();
        // Reverse order: the converged state must not depend on it.
        for post in c.posts().iter().rev() {
            let (source, text) = document_text(&c, post.id).unwrap();
            incremental.add_document(post.id, source, &text);
        }
        assert_eq!(built.doc_count(), incremental.doc_count());
        assert_eq!(built.vocabulary_size(), incremental.vocabulary_size());
        assert_eq!(built.avg_doc_length(), incremental.avg_doc_length());
        assert_eq!(
            built.doc_frequency("duomo"),
            incremental.doc_frequency("duomo")
        );
    }

    #[test]
    fn add_remove_add_equals_single_add() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        let (source, text) = document_text(&c, PostId::new(0)).unwrap();
        idx.remove_document(PostId::new(0));
        idx.add_document(PostId::new(0), source, &text);
        let fresh = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.vocabulary_size(), fresh.vocabulary_size());
        assert_eq!(idx.avg_doc_length(), fresh.avg_doc_length());
        assert_eq!(idx.postings("duomo")[0].tf, 3);
    }

    #[test]
    fn readd_replaces_previous_contents() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        idx.add_document(PostId::new(0), SourceId::new(0), "fountain plaza");
        assert_eq!(idx.doc_count(), 2);
        assert_eq!(idx.doc_frequency("duomo"), 0);
        assert_eq!(idx.doc_frequency("fountain"), 1);
        assert_eq!(idx.doc_length(PostId::new(0)), 2);
    }

    /// The doc table and the term dictionary must be consistent:
    ///
    /// * each dictionary entry names a non-empty list that names it
    ///   back, every other slot is free (empty, listed once in
    ///   `free_ids`);
    /// * live (one per post, naming it back), pending and free
    ///   ordinals partition the doc table, and only pending and free
    ///   rows carry the tombstone flag;
    /// * every posting names a live or pending ordinal, and every
    ///   term id a live or pending row holds is live and lists it;
    /// * every live or pending row's span lies inside the arena, no
    ///   two non-empty spans overlap, free rows hold empty spans, and
    ///   the live span words plus the dead count are the whole arena.
    fn assert_bounds_exact(idx: &InvertedIndex) {
        let rows = idx.rows.len();
        assert_eq!(rows, idx.spans.len());
        let mut class: Vec<Option<&str>> = vec![None; rows];
        let live_ords = idx.ordinal_of.iter().map(|(&post, &ord)| {
            assert_eq!(idx.rows[ord as usize].post, post, "ordinal {ord}");
            (ord, "live")
        });
        let pending = idx.pending.iter().map(|&ord| (ord, "pending"));
        let free = idx.free_ords.iter().map(|&ord| (ord, "free"));
        for (ord, kind) in live_ords.chain(pending).chain(free) {
            let seen = class[ord as usize].replace(kind);
            assert_eq!(seen, None, "ordinal {ord} is both {kind} and {seen:?}");
            assert_eq!(idx.rows[ord as usize].tombstoned, kind != "live");
        }
        assert!(class.iter().all(Option::is_some), "an ordinal leaked");

        let mut live = vec![false; idx.lists.len()];
        for (term, &id) in idx.term_ids.iter() {
            let list = &idx.lists[id as usize];
            assert_eq!(&list.term, term, "id {id} does not name `{term}` back");
            assert!(!list.entries.is_empty(), "dictionary kept emptied `{term}`");
            for p in &list.entries {
                assert!(
                    class[p.ord as usize] != Some("free"),
                    "`{term}` names a free row"
                );
            }
            live[id as usize] = true;
        }
        let mut free = idx.free_ids.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), idx.free_ids.len(), "an id was freed twice");
        for &id in &free {
            assert!(!live[id as usize], "live id {id} is also free");
            let slot = &idx.lists[id as usize];
            assert!(slot.term.is_empty() && slot.entries.is_empty());
        }
        assert_eq!(
            idx.term_ids.len() + free.len(),
            idx.lists.len(),
            "leaked term ids"
        );
        let mut held: Vec<(usize, usize, usize)> = Vec::new();
        for (ord, &span) in idx.spans.iter().enumerate() {
            assert!(class[ord] != Some("free") || span.len == 0);
            assert!(
                span.range().end <= idx.arena.len(),
                "row {ord} overruns the arena"
            );
            if span.len > 0 {
                held.push((span.range().start, span.range().end, ord));
            }
            for &id in &idx.arena[span.range()] {
                assert!(live[id as usize], "row {ord} holds dead term id {id}");
                let list = &idx.lists[id as usize];
                assert!(list.entries.iter().any(|p| p.ord as usize == ord));
            }
        }
        held.sort_unstable();
        for pair in held.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "rows {} and {} overlap",
                pair[0].2,
                pair[1].2
            );
        }
        let words: usize = held.iter().map(|&(start, end, _)| end - start).sum();
        assert_eq!(
            words + idx.dead_words,
            idx.arena.len(),
            "arena words leaked"
        );
    }

    /// A term's postings as sorted `(post index, tf)` pairs.
    fn postings_by_post(idx: &InvertedIndex, term: &str) -> Vec<(usize, u32)> {
        let mut pairs: Vec<(usize, u32)> = idx
            .postings(term)
            .iter()
            .map(|p| (idx.post_of(p.ord).unwrap().index(), p.tf))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Three documents over a shared term plus one exclusive term
    /// each.
    fn three_docs() -> InvertedIndex {
        let mut idx = InvertedIndex::default();
        let s = SourceId::new(0);
        idx.add_document(PostId::new(0), s, "duomo rooftop");
        idx.add_document(PostId::new(1), s, "duomo duomo castle");
        idx.add_document(PostId::new(2), s, "duomo gardens");
        idx
    }

    #[test]
    fn dictionary_tracks_immediate_removals() {
        let mut idx = three_docs();
        assert_bounds_exact(&idx);
        idx.remove_document(PostId::new(1));
        assert_bounds_exact(&idx);
        assert_eq!(idx.doc_frequency("castle"), 0);
        assert_eq!(idx.vocabulary_size(), 3);
        assert_eq!(postings_by_post(&idx, "duomo"), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn dictionary_tracks_tombstones_and_sweeps() {
        let mut idx = three_docs();
        // The batch path: statistics go first, postings wait.
        assert!(idx.tombstone_document(PostId::new(0)));
        assert!(idx.tombstone_document(PostId::new(1)));
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 4);
        assert_eq!(idx.finish(&mut Unshared::default()), 2);
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 2);
        assert_eq!(postings_by_post(&idx, "duomo"), vec![(2, 1)]);

        // The same through the public batch path.
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(2));
        idx.apply_delta(&delta);
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 0);
    }

    #[test]
    fn dictionary_tracks_readd_of_a_tombstoned_doc() {
        let mut idx = three_docs();
        assert!(idx.tombstone_document(PostId::new(1)));
        // The batch's re-add takes a fresh row: the tombstoned row
        // keeps its stale postings, and its ordinal stays off the
        // free list, until the sweep, which also retires `castle`.
        let stale = idx.rows.iter().position(|r| r.tombstoned);
        let mut staging = Staging::default();
        idx.stage_document(
            &mut staging,
            PostId::new(1),
            SourceId::new(0),
            "duomo fountain",
        );
        // Mid-batch, with the lists the add took back in their slots.
        idx.put_back(&mut staging.cow);
        assert_bounds_exact(&idx);
        assert_eq!(idx.pending.len(), 1);
        assert_ne!(idx.ordinal_of(PostId::new(1)).map(|o| o as usize), stale);
        assert_eq!(idx.finish(&mut staging.cow), 1);
        assert_bounds_exact(&idx);
        assert_eq!(idx.doc_frequency("castle"), 0);
        assert_eq!(idx.doc_frequency("fountain"), 1);
        assert_eq!(
            postings_by_post(&idx, "duomo"),
            vec![(0, 1), (1, 1), (2, 1)]
        );
        assert_eq!(idx.vocabulary_size(), 4);
    }

    #[test]
    fn a_batch_sweeps_once_so_a_readd_takes_a_fresh_row() {
        let mut idx = three_docs();
        let (x, y) = (PostId::new(1), PostId::new(2));
        let old = idx.ordinal_of(x).unwrap();
        let mut remove_x = CorpusDelta::new();
        remove_x.remove_doc(x);
        let mut add_x = CorpusDelta::new();
        add_x.add_doc(x, SourceId::new(0), "duomo fountain");
        let mut remove_y = CorpusDelta::new();
        remove_y.remove_doc(y);
        idx.apply_deltas([&remove_x, &add_x, &remove_y]);
        assert_bounds_exact(&idx);
        // Freed only by the batch's one sweep, after the re-add.
        assert_ne!(idx.ordinal_of(x), Some(old));
        assert!(idx.free_ordinals().contains(&old));
        assert_eq!(postings_by_post(&idx, "duomo"), vec![(0, 1), (1, 1)]);
        assert_eq!(idx.doc_frequency("castle"), 0);
        assert_eq!(idx.doc_frequency("gardens"), 0);
    }

    #[test]
    fn a_term_that_empties_then_reappears_is_served_fresh() {
        let mut idx = three_docs();
        idx.remove_document(PostId::new(1));
        assert_eq!(idx.doc_frequency("castle"), 0);
        idx.add_document(PostId::new(7), SourceId::new(0), "castle castle castle");
        idx.add_document(PostId::new(4), SourceId::new(0), "castle");
        assert_bounds_exact(&idx);
        assert_eq!(postings_by_post(&idx, "castle"), vec![(4, 1), (7, 3)]);
    }

    #[test]
    fn removing_every_doc_empties_the_dictionary() {
        let mut idx = three_docs();
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(0));
        delta.remove_doc(PostId::new(2));
        idx.apply_delta(&delta);
        idx.remove_document(PostId::new(1));
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 0);
        assert!(idx.term_ids.is_empty());
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.total_token_length(), 0);
    }

    #[test]
    fn a_recycled_detach_reuses_the_target_buffers_and_keeps_every_bound() {
        // A target that grew past the source: more rows, lists, arena.
        let mut spare = three_docs();
        let s = SourceId::new(1);
        for doc in 3..40 {
            spare.add_document(PostId::new(doc), s, "market fountain museum piazza");
        }
        let mut source = three_docs();
        source.remove_document(PostId::new(1));
        let (arena, rows) = (spare.arena.as_ptr(), spare.rows.as_ptr());
        let capacity = spare.arena.capacity();

        let mut cow = Unshared::default();
        spare.detach_from(&source, &mut cow);
        assert_bounds_exact(&spare);
        assert_eq!(format!("{spare:?}"), format!("{:?}", source.clone()));
        assert_eq!((spare.arena.as_ptr(), spare.rows.as_ptr()), (arena, rows));
        assert_eq!(spare.arena.capacity(), capacity);
        // The lists and the dictionary are the source's own, shared.
        assert!(Arc::ptr_eq(&spare.term_ids, &source.term_ids));
        assert_eq!(spare.lists.len(), source.lists.len());
        for (own, theirs) in spare.lists.iter().zip(&source.lists) {
            assert!(Arc::ptr_eq(own, theirs));
        }

        // Un-sharing a slot copies into the list the target held there,
        // and counts the copy.
        let id = source.term_ids["duomo"];
        let old = cow.displaced[id as usize]
            .as_ref()
            .unwrap()
            .entries
            .as_ptr();
        let list = cow.list(&mut spare.lists, id).unwrap();
        assert_eq!(list.entries.as_ptr(), old);
        assert_eq!(cow.copied, 2 * size_of::<Posting>());
        spare.put_back(&mut cow);
        assert!(!Arc::ptr_eq(
            &spare.lists[id as usize],
            &source.lists[id as usize]
        ));
        assert_bounds_exact(&spare);
        assert_eq!(format!("{spare:?}"), format!("{:?}", source.clone()));
    }

    #[test]
    fn applying_a_delta_to_a_clone_leaves_the_original_untouched() {
        let original = three_docs();
        let mut copy = original.clone();
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(1));
        delta.remove_doc(PostId::new(2));
        delta.add_doc(PostId::new(3), SourceId::new(1), "duomo duomo duomo plaza");
        copy.apply_delta(&delta);
        assert_bounds_exact(&copy);
        assert_eq!(postings_by_post(&copy, "duomo"), vec![(0, 1), (3, 3)]);
        // The copy took its own `duomo`; `rooftop`, which the delta
        // does not touch, stays shared.
        let [duomo, rooftop] = ["duomo", "rooftop"].map(|t| original.term_ids[t] as usize);
        assert!(!Arc::ptr_eq(&copy.lists[duomo], &original.lists[duomo]));
        assert!(Arc::ptr_eq(&copy.lists[rooftop], &original.lists[rooftop]));

        assert_bounds_exact(&original);
        assert_eq!(
            postings_by_post(&original, "duomo"),
            vec![(0, 1), (1, 2), (2, 1)]
        );
        assert_eq!(original.doc_frequency("castle"), 1);
        assert_eq!(original.doc_frequency("plaza"), 0);
        assert_eq!(original.vocabulary_size(), 4);
        assert_eq!(original.doc_count(), 3);
        assert_eq!(original.total_token_length(), 7);
        assert_eq!(original.doc_length(PostId::new(1)), 3);
        assert_eq!(original.source_of(PostId::new(2)), Some(SourceId::new(0)));
        assert_eq!(original.source_of(PostId::new(3)), None);
    }

    fn image(idx: &InvertedIndex) -> Vec<u8> {
        let mut out = Vec::new();
        idx.encode_into(&mut out);
        out
    }

    /// `three_docs` after removals, a re-add into a freed row, a term
    /// retired and reborn, and an arena compaction.
    fn churned() -> InvertedIndex {
        let mut idx = three_docs();
        idx.remove_document(PostId::new(1));
        idx.add_document(PostId::new(4), SourceId::new(2), "castle fountain");
        let mut delta = CorpusDelta::new();
        delta.remove_doc(PostId::new(0));
        delta.remove_doc(PostId::new(2));
        delta.add_doc(PostId::new(2), SourceId::new(0), "gardens gardens piazza");
        idx.apply_delta(&delta);
        idx
    }

    #[test]
    fn an_image_roundtrips_canonically_and_keeps_every_bound() {
        for idx in [InvertedIndex::default(), three_docs(), churned()] {
            let bytes = image(&idx);
            let decoded = InvertedIndex::decode(&bytes).unwrap();
            assert_bounds_exact(&decoded);
            assert_eq!(image(&decoded), bytes);
            assert_eq!(decoded.doc_count(), idx.doc_count());
            assert_eq!(decoded.total_token_length(), idx.total_token_length());
            assert_eq!(decoded.free_ordinals(), idx.free_ordinals());
            for term in [
                "duomo", "castle", "gardens", "fountain", "piazza", "rooftop",
            ] {
                assert_eq!(
                    postings_by_post(&decoded, term),
                    postings_by_post(&idx, term)
                );
            }

            // The decoded index evolves exactly as the original does.
            let (mut a, mut b) = (idx.clone(), decoded);
            let mut delta = CorpusDelta::new();
            delta.remove_doc(PostId::new(2));
            delta.add_doc(PostId::new(9), SourceId::new(1), "duomo castle market");
            a.apply_delta(&delta);
            b.apply_delta(&delta);
            assert_bounds_exact(&b);
            assert_eq!(image(&a), image(&b));
        }
    }

    #[test]
    fn a_damaged_image_is_an_error_never_a_panic() {
        let bytes = image(&churned());
        for cut in 0..bytes.len() {
            assert!(
                InvertedIndex::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            InvertedIndex::decode(&trailing).unwrap_err(),
            DecodeError::TrailingBytes
        );
        // A flipped bit either fails to decode or yields an index that
        // keeps every bound its mutations and queries rely on.
        for at in 0..bytes.len() {
            for bit in [0x01, 0x10, 0x80] {
                let mut flipped = bytes.clone();
                flipped[at] ^= bit;
                if let Ok(idx) = InvertedIndex::decode(&flipped) {
                    assert_bounds_exact(&idx);
                }
            }
        }
    }

    #[test]
    fn an_image_naming_a_row_past_the_table_is_inconsistent() {
        let mut idx = InvertedIndex::default();
        idx.add_document(PostId::new(0), SourceId::new(0), "duomo");
        let bytes = image(&idx);
        // One slot "duomo" with one posting (ord 0, tf 1), then the
        // free ids: point the posting at ordinal 1.
        let at = 1 + 1 + "duomo".len() + 1;
        assert_eq!(&bytes[at..at + 2], &[0, 1]);
        let mut bad = bytes.clone();
        bad[at] = 1;
        assert!(matches!(
            InvertedIndex::decode(&bad),
            Err(DecodeError::Inconsistent(_))
        ));
    }

    #[test]
    fn apply_delta_adds_and_removes() {
        let c = corpus();
        let mut idx = InvertedIndex::build(&c);
        let delta = CorpusDelta::for_removals(&c, &[PostId::new(1)]).unwrap();
        idx.apply_delta(&delta);
        assert_eq!(idx.doc_count(), 1);
        let delta = CorpusDelta::for_posts(&c, &[PostId::new(1)]).unwrap();
        idx.apply_delta(&delta);
        let fresh = InvertedIndex::build(&c);
        assert_eq!(idx.doc_count(), fresh.doc_count());
        assert_eq!(idx.vocabulary_size(), fresh.vocabulary_size());
        assert_eq!(idx.doc_frequency("castle"), fresh.doc_frequency("castle"));
    }
}
