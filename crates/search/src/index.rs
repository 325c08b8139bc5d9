//! Inverted index over opening posts.
//!
//! Documents are the corpus's opening posts (title + body + tags),
//! which is what a search engine of the paper's era would index of a
//! blog or forum. Postings store term frequencies; document lengths
//! feed BM25's length normalization.
//!
//! The index is maintainable in place: documents can be added and
//! removed one at a time (or in batches through an
//! [`IndexWriter`](crate::writer::IndexWriter)), and an incremental
//! history of adds/removes converges to exactly the index a
//! from-scratch [`InvertedIndex::build`] produces. Removals go
//! through *tombstones*: the document's statistics disappear
//! immediately, while its postings are swept out by a
//! generation-aware compaction pass that touches each affected term
//! list at most once per commit.
//!
//! Documents live in a dense **doc table**: each gets a local `u32`
//! ordinal naming its row (post, source, length, tombstone flag) and
//! forward-index slot, and postings carry ordinals. An ordinal
//! returns to the free list only in the sweep that removes its
//! postings, so a later add in the same writer batch cannot take a
//! row whose stale postings that sweep still has to drop.
//!
//! Terms are *interned*: a term dictionary maps each live term to a
//! `u32` id, posting lists are stored by id, and the forward index
//! records ids rather than strings. Cloning the index — the
//! copy-on-write detach every published epoch pays — therefore copies
//! one small `Vec<u32>` per document instead of one heap `String` per
//! (document, term) pair.

use crate::token::tokenize;
use obs_model::{document_text, Corpus, CorpusDelta, PostId, SourceId};
use std::collections::HashMap;

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
#[derive(Debug, Clone, Default)]
struct PostingList {
    /// The term this list belongs to (the reverse of its dictionary
    /// entry, so an emptied list can retire its id); empty on a free
    /// slot.
    term: String,
    entries: Vec<Posting>,
    clean_gen: u64,
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

/// The inverted index.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// Term dictionary: each live term's id, its slot in `lists`.
    /// Always exactly the live vocabulary — an entry leaves in the
    /// same step its posting list empties.
    term_ids: HashMap<String, u32>,
    /// Posting lists by term id.
    lists: Vec<PostingList>,
    /// Ids of emptied slots in `lists`, reused by the next new term.
    free_ids: Vec<u32>,
    /// The doc table, by ordinal.
    rows: Vec<DocRow>,
    /// Forward index by ordinal: the distinct term ids of each live
    /// or pending row, so a sweep knows exactly which posting lists
    /// it dirties.
    doc_terms: Vec<Vec<u32>>,
    ordinal_of: HashMap<PostId, u32>,
    /// Ordinals of free rows, reused by the next add.
    free_ords: Vec<u32>,
    /// Ordinals tombstoned but not yet swept. Only ever non-empty
    /// while an [`IndexWriter`](crate::writer::IndexWriter) holds the
    /// index mutably, so readers never observe a stale posting.
    pending: Vec<u32>,
    total_len: u64,
    /// Compaction generation, bumped once per sweep.
    generation: u64,
}

impl InvertedIndex {
    /// Indexes every opening post of the corpus.
    pub fn build(corpus: &Corpus) -> InvertedIndex {
        let mut index = InvertedIndex::default();
        for post in corpus.posts() {
            let (source, text) = match document_text(corpus, post.id) {
                Ok(pair) => pair,
                Err(_) => continue,
            };
            index.add_document(post.id, source, &text);
        }
        index
    }

    /// Adds one document. Re-adding a live document replaces its
    /// previous contents (update semantics).
    pub fn add_document(&mut self, doc: PostId, source: SourceId, text: &str) {
        self.stage_document(doc, source, text);
        self.sweep();
    }

    /// Adds one document, tombstoning a live document of the same id
    /// without sweeping it. Crate-internal: only the writer defers
    /// sweeps.
    pub(crate) fn stage_document(&mut self, doc: PostId, source: SourceId, text: &str) {
        self.tombstone_document(doc);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in tokenize(text) {
            *tf.entry(t).or_insert(0) += 1;
        }
        let len: u32 = tf.values().sum();
        let row = DocRow {
            post: doc,
            source,
            len,
            tombstoned: false,
        };
        let ord = match self.free_ords.pop() {
            Some(ord) => {
                self.rows[ord as usize] = row;
                ord
            }
            // Freed ordinals are reused, so the row count is the peak
            // live document count: far below `u32::MAX` in memory.
            None => {
                self.rows.push(row);
                self.doc_terms.push(Vec::new());
                (self.rows.len() - 1) as u32
            }
        };
        self.ordinal_of.insert(doc, ord);
        self.total_len += len as u64;
        let mut terms = Vec::with_capacity(tf.len());
        for (term, freq) in tf {
            let id = self.intern(term);
            self.lists[id as usize]
                .entries
                .push(Posting { ord, tf: freq });
            terms.push(id);
        }
        self.doc_terms[ord as usize] = terms;
    }

    /// The id of `term`, allocating one (and an empty posting list)
    /// if the term is new to the vocabulary.
    fn intern(&mut self, term: String) -> u32 {
        if let Some(&id) = self.term_ids.get(&term) {
            return id;
        }
        let id = match self.free_ids.pop() {
            Some(id) => id,
            // Freed ids are reused, so the slot count is the peak live
            // vocabulary: far below `u32::MAX` for any index in memory.
            None => {
                self.lists.push(PostingList::default());
                (self.lists.len() - 1) as u32
            }
        };
        self.lists[id as usize].term = term.clone();
        self.term_ids.insert(term, id);
        id
    }

    /// Drops an emptied list's dictionary entry and frees its id. The
    /// slot keeps its `clean_gen`, so a sweep in progress that meets
    /// the id again skips it.
    fn retire(&mut self, id: u32) {
        let list = &mut self.lists[id as usize];
        let term = std::mem::take(&mut list.term);
        // Release the capacity `retain` left behind.
        list.entries = Vec::new();
        self.term_ids.remove(&term);
        self.free_ids.push(id);
    }

    /// Removes one document, sweeping its postings immediately.
    /// Returns whether the document was present.
    pub fn remove_document(&mut self, doc: PostId) -> bool {
        let removed = self.tombstone_document(doc);
        self.sweep();
        removed
    }

    /// Applies a change-set: removals first, then additions, so a
    /// delta that replaces a document behaves like an update.
    pub fn apply_delta(&mut self, delta: &CorpusDelta) {
        let mut writer = crate::writer::IndexWriter::new(self);
        writer.apply(delta);
        writer.commit();
    }

    /// Marks a document removed without sweeping its postings:
    /// statistics (count, lengths, source) update immediately, the
    /// posting entries and the row wait for [`InvertedIndex::sweep`].
    /// Crate-internal: only the writer defers sweeps.
    pub(crate) fn tombstone_document(&mut self, doc: PostId) -> bool {
        let Some(ord) = self.ordinal_of.remove(&doc) else {
            return false;
        };
        let row = &mut self.rows[ord as usize];
        row.tombstoned = true;
        self.total_len -= row.len as u64;
        self.pending.push(ord);
        true
    }

    /// Sweeps all pending tombstones in one generation: every posting
    /// list dirtied by at least one tombstoned document is compacted
    /// exactly once, however many documents it hosted. Only then do
    /// the tombstoned rows go back on the free list.
    pub(crate) fn sweep(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        self.generation += 1;
        let gen = self.generation;
        let pending = std::mem::take(&mut self.pending);
        for &ord in &pending {
            for id in std::mem::take(&mut self.doc_terms[ord as usize]) {
                let rows = &self.rows;
                let list = &mut self.lists[id as usize];
                if list.clean_gen < gen {
                    list.entries.retain(|p| !rows[p.ord as usize].tombstoned);
                    list.clean_gen = gen;
                    if list.entries.is_empty() {
                        self.retire(id);
                    }
                }
            }
        }
        self.free_ords.extend_from_slice(&pending);
        pending.len()
    }

    /// Number of removals awaiting a sweep.
    pub(crate) fn pending_tombstones(&self) -> usize {
        self.pending.len()
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
            .map_or(&[], |&id| self.lists[id as usize].entries.as_slice())
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
            .map(|&ord| &self.rows[ord as usize])
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, SourceKind, Tag, Timestamp};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions");
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
        );
        b.add_discussion_with_post(
            s2,
            cat,
            "castle gardens",
            u,
            Timestamp::from_days(2),
            "the castle gardens are lovely",
            vec![],
            None,
        );
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
    ///   term id a live or pending row holds is live and lists it.
    fn assert_bounds_exact(idx: &InvertedIndex) {
        let rows = idx.rows.len();
        assert_eq!(rows, idx.doc_terms.len());
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
        for (term, &id) in &idx.term_ids {
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
        for (ord, ids) in idx.doc_terms.iter().enumerate() {
            assert!(class[ord] != Some("free") || ids.is_empty());
            for &id in ids {
                assert!(live[id as usize], "row {ord} holds dead term id {id}");
                let list = &idx.lists[id as usize];
                assert!(list.entries.iter().any(|p| p.ord as usize == ord));
            }
        }
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
        // The writer's path: statistics go first, postings wait.
        assert!(idx.tombstone_document(PostId::new(0)));
        assert!(idx.tombstone_document(PostId::new(1)));
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 4);
        assert_eq!(idx.sweep(), 2);
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 2);
        assert_eq!(postings_by_post(&idx, "duomo"), vec![(2, 1)]);

        // The same through the public writer.
        let mut writer = crate::writer::IndexWriter::new(&mut idx);
        writer.remove_document(PostId::new(2));
        writer.commit();
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 0);
    }

    #[test]
    fn dictionary_tracks_readd_of_a_tombstoned_doc() {
        let mut idx = three_docs();
        assert!(idx.tombstone_document(PostId::new(1)));
        // The writer's re-add takes a fresh row: the tombstoned row
        // keeps its stale postings, and its ordinal stays off the
        // free list, until the sweep, which also retires `castle`.
        let stale = idx.rows.iter().position(|r| r.tombstoned);
        idx.stage_document(PostId::new(1), SourceId::new(0), "duomo fountain");
        assert_bounds_exact(&idx);
        assert_eq!(idx.pending_tombstones(), 1);
        assert_ne!(idx.ordinal_of(PostId::new(1)).map(|o| o as usize), stale);
        assert_eq!(idx.sweep(), 1);
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
        let mut writer = crate::writer::IndexWriter::new(&mut idx);
        writer.remove_document(PostId::new(0));
        writer.remove_document(PostId::new(2));
        writer.commit();
        idx.remove_document(PostId::new(1));
        assert_bounds_exact(&idx);
        assert_eq!(idx.vocabulary_size(), 0);
        assert!(idx.term_ids.is_empty());
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.total_token_length(), 0);
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
