//! Property suite: the doc table stays consistent under arbitrary
//! index maintenance.
//!
//! Postings name documents by ordinal, and ordinals are reused
//! through a free list. The hazard is reuse inside one
//! [`InvertedIndex::apply_deltas`] batch: were a tombstoned row freed
//! before the batch's sweep, a later add in the batch could take it,
//! and the sweep would then keep stale postings or drop fresh ones.
//! The batches mix removals, re-adds of live ids and reuse of removed
//! ids; after every batch the index must equal a from-scratch index
//! of the live documents, with every ordinal used once.
//!
//! A serving layer also detaches a published index *into* an older
//! one's storage ([`InvertedIndex::apply_shared`]), sharing every
//! posting list it does not touch, so whatever history that older
//! index has, the result must be the same index a fresh clone gives,
//! must evolve like it, and must leave the published epoch's image
//! as it was.

use obs_model::{CorpusDelta, PostId, SourceId};
use obs_search::index::Posting;
use obs_search::score::{bm25_scores, Bm25Params};
use obs_search::InvertedIndex;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Small shared vocabulary so removals constantly dirty lists that
/// other live documents still populate.
const POOL: [&str; 8] = [
    "duomo", "castle", "gardens", "rooftop", "market", "fountain", "museum", "piazza",
];

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A synthetic document body of 1–12 pool words (repeats likely, so
/// term frequencies above 1 are common).
fn synth_text(state: &mut u64) -> String {
    let words = 1 + (lcg(state) % 12) as usize;
    (0..words)
        .map(|_| POOL[(lcg(state) % POOL.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The index's canonical image.
fn image(idx: &InvertedIndex) -> Vec<u8> {
    let mut out = Vec::new();
    idx.encode_into(&mut out);
    out
}

/// A term's postings as a set of `(post, tf)`.
fn postings_by_post(idx: &InvertedIndex, term: &str) -> BTreeSet<(PostId, u32)> {
    idx.postings(term)
        .iter()
        .map(|p| (idx.post_of(p.ord).expect("posting names a live row"), p.tf))
        .collect()
}

/// The index against a from-scratch index of the live documents, and
/// its ordinals against the live posts and the free list. Returns
/// the from-scratch index.
fn assert_doc_table(idx: &InvertedIndex, live: &BTreeMap<u32, String>) -> InvertedIndex {
    let mut scratch = InvertedIndex::default();
    for (&doc, text) in live {
        scratch.add_document(PostId::new(doc), SourceId::new(doc % 5), text);
    }
    for term in POOL {
        assert_eq!(
            postings_by_post(idx, term),
            postings_by_post(&scratch, term),
            "postings of `{term}`"
        );
    }
    assert_eq!(idx.doc_count(), scratch.doc_count());
    assert_eq!(idx.total_token_length(), scratch.total_token_length());
    let mut ordinals = BTreeSet::new();
    for &doc in live.keys() {
        let post = PostId::new(doc);
        assert_eq!(idx.doc_length(post), scratch.doc_length(post));
        assert_eq!(idx.source_of(post), scratch.source_of(post));
        let ord = idx.ordinal_of(post).expect("live post has an ordinal");
        assert!(ordinals.insert(ord), "ordinal {ord} live twice");
        assert_eq!(idx.post_of(ord), Some(post));
    }
    for &ord in idx.free_ordinals() {
        assert!(ordinals.insert(ord), "ordinal {ord} freed twice or live");
        assert_eq!(idx.post_of(ord), None);
    }
    scratch
}

/// A batch of 1–5 one-op deltas over doc ids 0..40, mixing removals
/// of live documents, re-adds of live ids (update semantics) and
/// re-use of removed ids; `live` follows it.
fn churn_batch(state: &mut u64, live: &mut BTreeMap<u32, String>) -> Vec<CorpusDelta> {
    let batch = 1 + (lcg(state) % 5) as usize;
    let mut deltas = Vec::with_capacity(batch);
    for _ in 0..batch {
        let mut delta = CorpusDelta::new();
        let roll = lcg(state) % 3;
        if roll == 0 && !live.is_empty() {
            let nth = (lcg(state) as usize) % live.len();
            let victim = *live.keys().nth(nth).unwrap();
            delta.remove_doc(PostId::new(victim));
            live.remove(&victim);
        } else {
            let doc = (lcg(state) % 40) as u32;
            let text = synth_text(state);
            delta.add_doc(PostId::new(doc), SourceId::new(doc % 5), text.clone());
            live.insert(doc, text);
        }
        deltas.push(delta);
    }
    deltas
}

/// An index after churn batches of `ops` deltas or more in all from
/// `seed`, and its live documents.
fn history(seed: u64, ops: usize) -> (InvertedIndex, BTreeMap<u32, String>) {
    let mut state = seed.wrapping_add(1);
    let mut idx = InvertedIndex::default();
    let mut live = BTreeMap::new();
    let mut done = 0;
    while done < ops {
        let deltas = churn_batch(&mut state, &mut live);
        done += deltas.len();
        idx.apply_deltas(&deltas);
    }
    (idx, live)
}

/// Documents a churn batch removes and re-adds, at most.
const MAX_BATCH: usize = 5;

/// An upper bound on the bytes one batch can add to
/// [`InvertedIndex::heap_bytes`]: per document, a fresh row, span
/// and `ordinal_of` entry (under 64 bytes) plus, per distinct word,
/// an arena id (4 bytes) and a posting (8 bytes).
const BATCH_BYTES: usize = MAX_BATCH * (64 + POOL.len() * (4 + 8));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn doc_table_matches_a_scratch_index_through_ordinal_reuse(
        seed in 0u64..10_000,
        ops in 5usize..60,
    ) {
        let mut state = seed.wrapping_add(1);
        let mut idx = InvertedIndex::default();
        let mut live: BTreeMap<u32, String> = BTreeMap::new();

        let mut done = 0usize;
        while done < ops {
            // Tombstones accumulate and compact in one generation
            // sweep after the batch's last delta.
            let deltas = churn_batch(&mut state, &mut live);
            done += deltas.len();
            idx.apply_deltas(&deltas);
            assert_doc_table(&idx, &live);
        }

        // Drain the survivors through one final batched removal: every
        // row returns to the free list.
        let mut drain = CorpusDelta::new();
        for &doc in live.keys() {
            drain.remove_doc(PostId::new(doc));
        }
        idx.apply_delta(&drain);
        live.clear();
        assert_doc_table(&idx, &live);
        prop_assert_eq!(idx.doc_count(), 0);
        prop_assert_eq!(idx.vocabulary_size(), 0);
    }

    #[test]
    fn forward_index_stays_bounded_through_recrawl_churn(seed in 0u64..10_000) {
        // A steady 40-document corpus whose documents are removed and
        // re-added with fresh text, batch after batch: every re-add
        // appends to the forward-index arena, so without compaction
        // the index would grow without bound while a from-scratch
        // index of the same documents does not.
        let mut state = seed.wrapping_add(1);
        let mut idx = InvertedIndex::default();
        let mut live: BTreeMap<u32, String> = BTreeMap::new();
        let mut boot = CorpusDelta::new();
        for doc in 0..40u32 {
            let text = synth_text(&mut state);
            boot.add_doc(PostId::new(doc), SourceId::new(doc % 5), text.clone());
            live.insert(doc, text);
        }
        idx.apply_delta(&boot);

        for _ in 0..240 {
            let mut delta = CorpusDelta::new();
            for _ in 0..1 + (lcg(&mut state) as usize) % MAX_BATCH {
                let nth = (lcg(&mut state) as usize) % live.len();
                let victim = *live.keys().nth(nth).unwrap();
                delta.remove_doc(PostId::new(victim));
                live.remove(&victim);
            }
            // As many documents come back, under ids 0..60, so both
            // re-crawls of a removed id and fresh ids occur.
            while live.len() < 40 {
                let doc = (lcg(&mut state) % 60) as u32;
                if live.contains_key(&doc) {
                    continue;
                }
                let text = synth_text(&mut state);
                delta.add_doc(PostId::new(doc), SourceId::new(doc % 5), text.clone());
                live.insert(doc, text);
            }
            idx.apply_delta(&delta);
            let fresh = assert_doc_table(&idx, &live);
            prop_assert!(
                idx.heap_bytes() <= 2 * fresh.heap_bytes() + BATCH_BYTES,
                "{} bytes against a fresh build's {}",
                idx.heap_bytes(),
                fresh.heap_bytes()
            );
        }
    }

    #[test]
    fn a_recycled_detach_from_any_history_equals_a_fresh_clone(
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
        ops_a in 0usize..60,
        ops_b in 0usize..60,
    ) {
        let (target, _) = history(seed_a, ops_a);
        let (source, mut live) = history(seed_b, ops_b);
        // The published epoch, which a reader's pin shares, so an
        // apply detaches it: into the recycled target, or afresh.
        let pin = Arc::new(source);
        let pinned = image(&pin);
        let mut fresh = InvertedIndex::clone(&pin);
        let mut recycled = Arc::clone(&pin);
        let mut spare = Some(target);
        // A removal of a post no history holds: the detach alone.
        let mut absent = CorpusDelta::new();
        absent.remove_doc(PostId::new(1_000));
        let detach = InvertedIndex::apply_shared(&mut recycled, &mut spare, [&absent]);
        prop_assert!(detach.recycled && spare.is_none());
        // It copied the flat tables and shared every list and the
        // dictionary.
        let postings: usize = POOL.iter().map(|t| pin.doc_frequency(t)).sum();
        prop_assert_eq!(
            detach.copied,
            pin.heap_bytes()
                - postings * std::mem::size_of::<Posting>()
                - pin.vocabulary_size() * std::mem::size_of::<(String, u32)>()
        );

        // Field for field the same index (`Debug` prints every field,
        // and hash tables clone bucket for bucket), whatever rows,
        // lists and capacity the target held before.
        prop_assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
        assert_doc_table(&recycled, &live);
        prop_assert_eq!(recycled.heap_bytes(), pin.heap_bytes());
        prop_assert_eq!(recycled.vocabulary_size(), pin.vocabulary_size());
        for &doc in live.keys() {
            let post = PostId::new(doc);
            prop_assert_eq!(recycled.ordinal_of(post), pin.ordinal_of(post));
        }
        let probes = [vec!["duomo"], vec!["castle", "gardens"], POOL.to_vec()];
        for probe in &probes {
            prop_assert_eq!(
                bm25_scores(&recycled, probe, Bm25Params::default()),
                bm25_scores(&pin, probe, Bm25Params::default())
            );
        }

        // And it evolves like the fresh clone: the same next batch
        // lands both on the same documents, rows and statistics.
        // Copying only the lists it touches, it copies at most the
        // whole index.
        let mut state = seed_a ^ seed_b;
        let deltas = churn_batch(&mut state, &mut live);
        let detach = InvertedIndex::apply_shared(&mut recycled, &mut None, &deltas);
        prop_assert!(!detach.recycled);
        prop_assert!(detach.copied <= pin.heap_bytes());
        fresh.apply_deltas(&deltas);
        assert_doc_table(&recycled, &live);
        prop_assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
        prop_assert_eq!(recycled.heap_bytes(), fresh.heap_bytes());
        prop_assert_eq!(recycled.free_ordinals(), fresh.free_ordinals());
        for &doc in live.keys() {
            let post = PostId::new(doc);
            prop_assert_eq!(recycled.ordinal_of(post), fresh.ordinal_of(post));
        }
        for probe in &probes {
            prop_assert_eq!(
                bm25_scores(&recycled, probe, Bm25Params::default()),
                bm25_scores(&fresh, probe, Bm25Params::default())
            );
        }
        // Neither apply wrote through a list the pinned epoch holds.
        prop_assert_eq!(image(&pin), pinned);
    }
}
