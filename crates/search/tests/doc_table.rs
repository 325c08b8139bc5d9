//! Property suite: the doc table stays consistent under arbitrary
//! index maintenance.
//!
//! Postings name documents by ordinal, and ordinals are reused
//! through a free list. The hazard is reuse inside one
//! [`IndexWriter`] batch: were a tombstoned row freed before the
//! commit's sweep, a later add in the batch could take it, and the
//! sweep would then keep stale postings or drop fresh ones. The
//! batches mix removals, re-adds of live ids and reuse of removed
//! ids; after every commit the index must equal a from-scratch index
//! of the live documents, with every ordinal used once.

use obs_model::{PostId, SourceId};
use obs_search::{IndexWriter, InvertedIndex};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

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

/// A term's postings as a set of `(post, tf)`.
fn postings_by_post(idx: &InvertedIndex, term: &str) -> BTreeSet<(PostId, u32)> {
    idx.postings(term)
        .iter()
        .map(|p| (idx.post_of(p.ord).expect("posting names a live row"), p.tf))
        .collect()
}

/// The index against a from-scratch index of the live documents, and
/// its ordinals against the live posts and the free list.
fn assert_doc_table(idx: &InvertedIndex, live: &BTreeMap<u32, String>) {
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
}

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
            // A writer batch of 1–5 ops: tombstones accumulate and
            // compact in one generation sweep at commit.
            let batch = 1 + (lcg(&mut state) % 5) as usize;
            let mut writer = IndexWriter::new(&mut idx);
            for _ in 0..batch {
                let roll = lcg(&mut state) % 3;
                if roll == 0 && !live.is_empty() {
                    let nth = (lcg(&mut state) as usize) % live.len();
                    let victim = *live.keys().nth(nth).unwrap();
                    writer.remove_document(PostId::new(victim));
                    live.remove(&victim);
                } else {
                    // Doc ids from a small range, so re-adds of live
                    // ids (update semantics) and re-use of removed
                    // ids both occur.
                    let doc = (lcg(&mut state) % 40) as u32;
                    let text = synth_text(&mut state);
                    writer.add_document(PostId::new(doc), SourceId::new(doc % 5), &text);
                    live.insert(doc, text);
                }
                done += 1;
            }
            writer.commit();
            assert_doc_table(&idx, &live);
        }

        // Drain the survivors through one final batched removal: every
        // row returns to the free list.
        let mut writer = IndexWriter::new(&mut idx);
        for &doc in live.keys() {
            writer.remove_document(PostId::new(doc));
        }
        writer.commit();
        live.clear();
        assert_doc_table(&idx, &live);
        prop_assert_eq!(idx.doc_count(), 0);
        prop_assert_eq!(idx.vocabulary_size(), 0);
    }
}
