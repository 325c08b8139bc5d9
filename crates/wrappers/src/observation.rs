//! The uniform content model every wrapper maps into.
//!
//! Whatever dialect a native API speaks, the wrapper layer normalizes
//! its records into [`ContentItem`]s: one per post or comment, with
//! resolved model identifiers, simulation timestamps and aggregated
//! interaction counters. A full crawl of one source yields a
//! [`SourceObservation`].

use obs_model::{
    CategoryId, ContentRef, Corpus, CorpusDelta, DiscussionId, GeoPoint, InteractionKind, SourceId,
    Tag, Timestamp, UserId,
};

/// Whether an item is an opening post or a comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemKind {
    /// An opening post (thread starter, tweet, article).
    Post,
    /// A comment (reply, review, revision note).
    Comment,
}

/// Aggregated interaction counters for one content item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InteractionCounts {
    /// Likes / upvotes.
    pub likes: u32,
    /// Shares.
    pub shares: u32,
    /// Retweets.
    pub retweets: u32,
    /// Mentions / replies-at.
    pub mentions: u32,
    /// Generic feedbacks ("helpful" votes, ratings).
    pub feedbacks: u32,
    /// Passive reads.
    pub reads: u32,
}

impl InteractionCounts {
    /// Tallies the interactions recorded on `target` in the corpus.
    pub fn tally(corpus: &Corpus, target: ContentRef) -> InteractionCounts {
        let mut counts = InteractionCounts::default();
        for &i in corpus.interactions_on(target) {
            match corpus.interactions()[i.index()].kind {
                InteractionKind::Like => counts.likes += 1,
                InteractionKind::Share => counts.shares += 1,
                InteractionKind::Retweet => counts.retweets += 1,
                InteractionKind::Mention => counts.mentions += 1,
                InteractionKind::Feedback => counts.feedbacks += 1,
                InteractionKind::Read => counts.reads += 1,
            }
        }
        counts
    }

    /// Total *active* interactions (everything except reads).
    pub fn active_total(&self) -> u32 {
        self.likes + self.shares + self.retweets + self.mentions + self.feedbacks
    }
}

/// One normalized content item.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentItem {
    /// Hosting source.
    pub source: SourceId,
    /// Discussion the item belongs to.
    pub discussion: DiscussionId,
    /// The underlying post or comment.
    pub content: ContentRef,
    /// Post vs comment.
    pub kind: ItemKind,
    /// Resolved author.
    pub author: UserId,
    /// Publication instant (simulation time).
    pub published: Timestamp,
    /// Content category of the discussion.
    pub category: CategoryId,
    /// Body text (may be empty in lightweight worlds).
    pub text: String,
    /// Tags (posts only; comments carry none).
    pub tags: Vec<Tag>,
    /// Geo-tag, when present.
    pub geo: Option<GeoPoint>,
    /// Aggregated interaction counters.
    pub interactions: InteractionCounts,
}

/// A full normalized view of one source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceObservation {
    /// The observed source.
    pub source: SourceId,
    /// Items in publication order.
    pub items: Vec<ContentItem>,
}

impl SourceObservation {
    /// Items that are opening posts.
    pub fn posts(&self) -> impl Iterator<Item = &ContentItem> {
        self.items.iter().filter(|i| i.kind == ItemKind::Post)
    }

    /// Items that are comments.
    pub fn comments(&self) -> impl Iterator<Item = &ContentItem> {
        self.items.iter().filter(|i| i.kind == ItemKind::Comment)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the observation holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Converts the observation into the change-set it implies:
    /// every observed opening post becomes an indexable document
    /// (body text plus tags — the discussion title is whatever the
    /// native API folded into the body), and per-source engagement
    /// counters move by one discussion per post and one comment per
    /// comment. Feeding the delta to a search engine is how a crawl
    /// tick flows straight into a queryable index.
    pub fn to_delta(&self) -> CorpusDelta {
        let mut delta = CorpusDelta::new();
        for item in &self.items {
            match (item.kind, item.content) {
                (ItemKind::Post, ContentRef::Post(pid)) => {
                    let mut text = String::with_capacity(item.text.len() + 16 * item.tags.len());
                    text.push_str(&item.text);
                    for tag in &item.tags {
                        text.push(' ');
                        text.push_str(tag.as_str());
                    }
                    delta.add_doc(pid, item.source, text);
                    delta.note_engagement(item.source, 1, 0);
                }
                _ => delta.note_engagement(item.source, 0, 1),
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, SourceKind};

    #[test]
    fn tally_counts_by_kind() {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Microblog, "m", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let v = b.add_user("v", AccountKind::Person, Timestamp::EPOCH);
        let (_, post) = b
            .add_discussion_with_post(
                s,
                cat,
                "t",
                u,
                Timestamp::from_days(1),
                "hello",
                vec![],
                None,
            )
            .unwrap();
        let target = ContentRef::Post(post);
        b.add_interaction(v, target, InteractionKind::Like, Timestamp::from_days(2))
            .unwrap();
        b.add_interaction(v, target, InteractionKind::Retweet, Timestamp::from_days(2))
            .unwrap();
        b.add_interaction(v, target, InteractionKind::Retweet, Timestamp::from_days(3))
            .unwrap();
        b.add_interaction(v, target, InteractionKind::Read, Timestamp::from_days(3))
            .unwrap();
        let corpus = b.build();

        let counts = InteractionCounts::tally(&corpus, target);
        assert_eq!(counts.likes, 1);
        assert_eq!(counts.retweets, 2);
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.mentions, 0);
        assert_eq!(counts.active_total(), 3);
    }

    #[test]
    fn observation_partitions_posts_and_comments() {
        let item = |kind| ContentItem {
            source: SourceId::new(0),
            discussion: DiscussionId::new(0),
            content: ContentRef::Post(obs_model::PostId::new(0)),
            kind,
            author: UserId::new(0),
            published: Timestamp::EPOCH,
            category: CategoryId::new(0),
            text: String::new(),
            tags: vec![],
            geo: None,
            interactions: InteractionCounts::default(),
        };
        let obs = SourceObservation {
            source: SourceId::new(0),
            items: vec![
                item(ItemKind::Post),
                item(ItemKind::Comment),
                item(ItemKind::Comment),
            ],
        };
        assert_eq!(obs.posts().count(), 1);
        assert_eq!(obs.comments().count(), 2);
        assert_eq!(obs.len(), 3);
        assert!(!obs.is_empty());
    }
}
