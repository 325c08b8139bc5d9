//! Incremental corpus change-sets.
//!
//! A [`Corpus`] is an immutable arena, but the sources it snapshots
//! are not: blogs publish, forums archive, crawlers observe. A
//! [`CorpusDelta`] is the unit of change that flows from an
//! incremental crawl into downstream consumers (the search index,
//! the engine's static signals) without rebuilding the world:
//!
//! * [`DocDelta`] — one new (or re-published) opening post, carrying
//!   the exact text a from-scratch index build would see;
//! * removals — opening posts that disappeared from a source;
//! * [`EngagementDelta`] — per-source discussion/comment count
//!   adjustments, which feed query-independent ranking signals.
//!
//! Deltas compose: [`CorpusDelta::merge`] folds the change-sets of
//! several crawl ticks into one, and the helpers
//! [`CorpusDelta::for_posts`] / [`CorpusDelta::for_removals`] derive
//! change-sets from a corpus so tests and benches can replay any
//! subset of a world incrementally.

use crate::{Corpus, ModelError, PostId, SourceId};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// One opening post entering the observed world.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocDelta {
    /// Identifier of the post.
    pub post: PostId,
    /// Source hosting the post.
    pub source: SourceId,
    /// Indexable text: title, body and tags, space-joined — the same
    /// composition a full index build derives from the corpus.
    pub text: String,
}

/// Per-source engagement adjustment (may be negative on removals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngagementDelta {
    /// The source whose counters move.
    pub source: SourceId,
    /// Net change in hosted discussions.
    pub discussions: i64,
    /// Net change in comments across the source's discussions.
    pub comments: i64,
}

/// A change-set observed between two crawl ticks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusDelta {
    /// Newly observed opening posts, in observation order.
    pub added: Vec<DocDelta>,
    /// Opening posts that vanished from their source.
    pub removed: Vec<PostId>,
    /// Engagement adjustments, at most one entry per source.
    pub engagement: Vec<EngagementDelta>,
}

impl CorpusDelta {
    /// An empty change-set.
    pub fn new() -> CorpusDelta {
        CorpusDelta::default()
    }

    /// Whether the delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.engagement.is_empty()
    }

    /// Whether the delta adds or removes a document: an index applies
    /// nothing for one that carries only engagement.
    pub fn touches_documents(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty()
    }

    /// Number of document-level changes (adds + removals).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Records a newly observed opening post.
    pub fn add_doc(&mut self, post: PostId, source: SourceId, text: impl Into<String>) {
        self.added.push(DocDelta {
            post,
            source,
            text: text.into(),
        });
    }

    /// Records a vanished opening post.
    pub fn remove_doc(&mut self, post: PostId) {
        self.removed.push(post);
    }

    /// Accumulates an engagement adjustment for a source, merging
    /// with any prior adjustment for the same source.
    pub fn note_engagement(&mut self, source: SourceId, discussions: i64, comments: i64) {
        if let Some(e) = self.engagement.iter_mut().find(|e| e.source == source) {
            e.discussions += discussions;
            e.comments += comments;
        } else {
            self.engagement.push(EngagementDelta {
                source,
                discussions,
                comments,
            });
        }
    }

    /// Folds another delta into this one so that applying the merged
    /// delta equals applying the two in sequence. A removal in
    /// `other` cancels an earlier add of the same post (consumers
    /// replay removals before additions, so the stale add would
    /// otherwise resurrect the document); an add in `other` after an
    /// earlier removal needs no reconciliation — remove-then-add is
    /// already update semantics.
    pub fn merge(&mut self, other: CorpusDelta) {
        if !other.removed.is_empty() {
            let gone: BTreeSet<PostId> = other.removed.iter().copied().collect();
            self.added.retain(|d| !gone.contains(&d.post));
        }
        self.removed.extend(other.removed);
        self.added.extend(other.added);
        self.fold_engagement(other.engagement);
    }

    /// [`CorpusDelta::note_engagement`] for many adjustments at once:
    /// one entry per source, in first-appearance order, each found
    /// through a map rather than a scan of the entries, so folding
    /// adjustments over many sources stays linear in their number
    /// (up to a log factor).
    fn fold_engagement(&mut self, adjustments: Vec<EngagementDelta>) {
        let mut slot: BTreeMap<SourceId, usize> = BTreeMap::new();
        for (i, e) in self.engagement.iter().enumerate() {
            slot.entry(e.source).or_insert(i);
        }
        for e in adjustments {
            match slot.entry(e.source) {
                Entry::Occupied(at) => {
                    let entry = &mut self.engagement[*at.get()];
                    entry.discussions += e.discussions;
                    entry.comments += e.comments;
                }
                Entry::Vacant(at) => {
                    at.insert(self.engagement.len());
                    self.engagement.push(e);
                }
            }
        }
    }

    /// Folds a sequence of deltas into a single change-set —
    /// repeated [`CorpusDelta::merge`] — for consumers that want to
    /// ship or store a burst as one delta.
    ///
    /// Applying the coalesced delta is equivalent to applying the
    /// originals in order for *consistent* streams (every removal
    /// matches a present document). An inconsistent burst — say the
    /// same post removed twice — can differ at a consumer that
    /// clamps intermediate state (engagement counters floor at
    /// zero), because coalescing sums the adjustments before the
    /// clamp is applied. A consumer that needs unconditional
    /// equivalence with one-at-a-time replay should apply the burst
    /// in order instead (see `SearchEngine::apply_deltas` in
    /// `obs_search`).
    pub fn coalesce<'a>(deltas: impl IntoIterator<Item = &'a CorpusDelta>) -> CorpusDelta {
        let mut merged = CorpusDelta::new();
        for delta in deltas {
            merged.merge(delta.clone());
        }
        merged
    }

    /// Derives the change-set that adds the given opening posts,
    /// with the same indexable text (title + body + tags) a full
    /// build composes and one hosted discussion per post.
    pub fn for_posts(corpus: &Corpus, posts: &[PostId]) -> Result<CorpusDelta, ModelError> {
        let mut delta = CorpusDelta::new();
        let mut engagement = Vec::with_capacity(posts.len());
        for &pid in posts {
            let (source, text) = document_text(corpus, pid)?;
            delta.add_doc(pid, source, text);
            let comments = corpus
                .comments_of_discussion(corpus.post(pid)?.discussion)
                .len() as i64;
            engagement.push(EngagementDelta {
                source,
                discussions: 1,
                comments,
            });
        }
        delta.fold_engagement(engagement);
        Ok(delta)
    }

    /// Derives the change-set that removes the given opening posts,
    /// the exact inverse of [`CorpusDelta::for_posts`].
    pub fn for_removals(corpus: &Corpus, posts: &[PostId]) -> Result<CorpusDelta, ModelError> {
        let mut delta = CorpusDelta::new();
        let mut engagement = Vec::with_capacity(posts.len());
        for &pid in posts {
            let post = corpus.post(pid)?;
            let discussion = corpus.discussion(post.discussion)?;
            delta.remove_doc(pid);
            let comments = corpus.comments_of_discussion(discussion.id).len() as i64;
            engagement.push(EngagementDelta {
                source: discussion.source,
                discussions: -1,
                comments: -comments,
            });
        }
        delta.fold_engagement(engagement);
        Ok(delta)
    }
}

/// A [`CorpusDelta`] stamped with its position in a delta stream.
///
/// Sequence numbers are assigned by whoever owns the stream (a delta
/// journal, a replication log) and are contiguous: record `seq`
/// follows record `seq - 1`. Stamping lives in the model crate so
/// every consumer — journals, replicas, replay tools — agrees on
/// what "the n-th change" means, and so the stamped form serializes
/// with the same serde derives as the delta itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequencedDelta {
    /// 1-based position of this change-set in its stream.
    pub seq: u64,
    /// The change-set.
    pub delta: CorpusDelta,
}

impl SequencedDelta {
    /// Stamps a delta with its stream position.
    pub fn new(seq: u64, delta: CorpusDelta) -> SequencedDelta {
        SequencedDelta { seq, delta }
    }
}

/// The indexable text of an opening post: title, body and tags,
/// space-joined. Kept in one place so incremental adds reproduce a
/// from-scratch build bit-for-bit.
pub fn document_text(corpus: &Corpus, post: PostId) -> Result<(SourceId, String), ModelError> {
    let p = corpus.post(post)?;
    let discussion = corpus.discussion(p.discussion)?;
    let mut text = String::with_capacity(discussion.title.len() + p.body.len() + 16 * p.tags.len());
    text.push_str(&discussion.title);
    text.push(' ');
    text.push_str(&p.body);
    for tag in &p.tags {
        text.push(' ');
        text.push_str(tag.as_str());
    }
    Ok((discussion.source, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccountKind, CorpusBuilder, SourceKind, Tag, Timestamp};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions").unwrap();
        let s = b.add_source(SourceKind::Blog, "one", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let (d, _) = b
            .add_discussion_with_post(
                s,
                cat,
                "duomo views",
                u,
                Timestamp::from_days(1),
                "rooftop is amazing",
                vec![Tag::new("duomo")],
                None,
            )
            .unwrap();
        b.add_comment(d, u, "agreed", Timestamp::from_days(2))
            .unwrap();
        b.build()
    }

    #[test]
    fn document_text_matches_build_composition() {
        let c = corpus();
        let (source, text) = document_text(&c, PostId::new(0)).unwrap();
        assert_eq!(source, SourceId::new(0));
        assert_eq!(text, "duomo views rooftop is amazing duomo");
        assert!(document_text(&c, PostId::new(9)).is_err());
    }

    #[test]
    fn for_posts_and_for_removals_are_inverses() {
        let c = corpus();
        let added = CorpusDelta::for_posts(&c, &[PostId::new(0)]).unwrap();
        let removed = CorpusDelta::for_removals(&c, &[PostId::new(0)]).unwrap();
        assert_eq!(added.added.len(), 1);
        assert_eq!(
            added.engagement,
            vec![EngagementDelta {
                source: SourceId::new(0),
                discussions: 1,
                comments: 1,
            }]
        );
        assert_eq!(removed.removed, vec![PostId::new(0)]);
        assert_eq!(removed.engagement[0].discussions, -1);
        assert_eq!(removed.engagement[0].comments, -1);
    }

    #[test]
    fn engagement_merges_per_source() {
        let mut d = CorpusDelta::new();
        d.note_engagement(SourceId::new(3), 1, 2);
        d.note_engagement(SourceId::new(3), 1, 1);
        d.note_engagement(SourceId::new(4), 1, 0);
        assert_eq!(d.engagement.len(), 2);
        assert_eq!(d.engagement[0].discussions, 2);
        assert_eq!(d.engagement[0].comments, 3);
    }

    #[test]
    fn folds_keep_first_appearance_order_on_interleaved_sources() {
        // Sources 0 and 1 interleave: 0, 1, 0, 1.
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions").unwrap();
        let sources = [
            b.add_source(SourceKind::Blog, "zero", Timestamp::EPOCH),
            b.add_source(SourceKind::Forum, "one", Timestamp::EPOCH),
        ];
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        for (i, &s) in [0, 1, 0, 1].iter().map(|&k| &sources[k]).enumerate() {
            let (d, _) = b
                .add_discussion_with_post(
                    s,
                    cat,
                    "title",
                    u,
                    Timestamp::from_days(1),
                    "body",
                    vec![],
                    None,
                )
                .unwrap();
            for _ in 0..i {
                b.add_comment(d, u, "reply", Timestamp::from_days(2))
                    .unwrap();
            }
        }
        let c = b.build();
        let posts: Vec<PostId> = (0..4).map(PostId::new).collect();
        let entry = |source, discussions, comments| EngagementDelta {
            source: SourceId::new(source),
            discussions,
            comments,
        };

        let added = CorpusDelta::for_posts(&c, &posts).unwrap();
        assert_eq!(added.engagement, vec![entry(0, 2, 2), entry(1, 2, 4)]);
        let removed = CorpusDelta::for_removals(&c, &[posts[1], posts[0], posts[3]]).unwrap();
        assert_eq!(removed.engagement, vec![entry(1, -2, -4), entry(0, -1, 0)]);

        // Merging folds into existing entries first, then appends
        // unseen sources in the order they appear.
        let mut merged = CorpusDelta::new();
        merged.note_engagement(SourceId::new(1), 1, 1);
        let mut other = CorpusDelta::new();
        other.note_engagement(SourceId::new(5), 1, 0);
        other.note_engagement(SourceId::new(1), 1, 1);
        other.note_engagement(SourceId::new(2), 0, 3);
        merged.merge(other);
        assert_eq!(
            merged.engagement,
            vec![entry(1, 2, 2), entry(5, 1, 0), entry(2, 0, 3)]
        );
    }

    #[test]
    fn merge_concatenates_docs_and_folds_engagement() {
        let mut a = CorpusDelta::new();
        a.add_doc(PostId::new(0), SourceId::new(0), "x");
        a.note_engagement(SourceId::new(0), 1, 0);
        let mut b = CorpusDelta::new();
        b.remove_doc(PostId::new(1));
        b.note_engagement(SourceId::new(0), 0, 5);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.engagement.len(), 1);
        assert_eq!(a.engagement[0].comments, 5);
    }

    #[test]
    fn later_removal_cancels_earlier_add() {
        // Tick 1 observes post P; tick 2 observes it vanished. The
        // merged delta must not resurrect P (removals replay before
        // additions when a delta is applied).
        let mut a = CorpusDelta::new();
        a.add_doc(PostId::new(5), SourceId::new(0), "transient");
        let mut b = CorpusDelta::new();
        b.remove_doc(PostId::new(5));
        a.merge(b);
        assert!(a.added.is_empty());
        assert_eq!(a.removed, vec![PostId::new(5)]);
    }

    #[test]
    fn coalesce_equals_sequential_merges() {
        let mut a = CorpusDelta::new();
        a.add_doc(PostId::new(0), SourceId::new(0), "first");
        a.note_engagement(SourceId::new(0), 1, 2);
        let mut b = CorpusDelta::new();
        b.remove_doc(PostId::new(0));
        b.note_engagement(SourceId::new(1), 1, 0);
        let mut c = CorpusDelta::new();
        c.add_doc(PostId::new(3), SourceId::new(1), "third");

        let mut sequential = a.clone();
        sequential.merge(b.clone());
        sequential.merge(c.clone());
        let coalesced = CorpusDelta::coalesce([&a, &b, &c]);
        assert_eq!(coalesced, sequential);

        assert!(CorpusDelta::coalesce([]).is_empty());
        assert_eq!(CorpusDelta::coalesce([&a]), a);
    }

    #[test]
    fn empty_delta_reports_empty() {
        assert!(CorpusDelta::new().is_empty());
        assert_eq!(CorpusDelta::new().len(), 0);
    }

    #[test]
    fn delta_json_roundtrips() {
        let c = corpus();
        let d = CorpusDelta::for_posts(&c, &[PostId::new(0)]).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: CorpusDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn sequenced_delta_json_roundtrips() {
        let c = corpus();
        let d = CorpusDelta::for_posts(&c, &[PostId::new(0)]).unwrap();
        let stamped = SequencedDelta::new(7, d);
        let json = serde_json::to_string(&stamped).unwrap();
        let back: SequencedDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(stamped, back);
        assert_eq!(back.seq, 7);
    }
}
