//! The microblog dialect: a cursor-paged reverse-chronological
//! timeline of statuses with snowflake ids, millisecond timestamps,
//! counters and hashtags.

use crate::error::WrapperError;
use crate::fault::FaultPlan;
use crate::observation::InteractionCounts;
use crate::rate::TokenBucket;
use obs_model::{CommentId, ContentRef, Corpus, PostId, SourceId, SourceKind, Timestamp};

/// Statuses per timeline page.
pub const PAGE_SIZE: usize = 50;

const KIND_BIT: u64 = 1 << 21;
const RAW_MASK: u64 = KIND_BIT - 1;

/// Builds a snowflake-style status id: time-ordered, kind-tagged.
pub fn encode_status_id(published: Timestamp, content: ContentRef) -> u64 {
    let (kind_bit, raw) = match content {
        ContentRef::Post(p) => (0, p.raw() as u64),
        ContentRef::Comment(c) => (KIND_BIT, c.raw() as u64),
    };
    debug_assert!(raw <= RAW_MASK, "raw id overflows snowflake layout");
    (published.seconds() << 22) | kind_bit | (raw & RAW_MASK)
}

/// Decodes a snowflake id back into `(published, content)`.
pub fn decode_status_id(id: u64) -> (Timestamp, ContentRef) {
    let ts = Timestamp(id >> 22);
    let raw = (id & RAW_MASK) as u32;
    let content = if id & KIND_BIT != 0 {
        ContentRef::Comment(CommentId::new(raw))
    } else {
        ContentRef::Post(PostId::new(raw))
    };
    (ts, content)
}

/// One status as the platform serves it.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRecord {
    /// Snowflake id.
    pub status_id: u64,
    /// Author handle.
    pub handle: String,
    /// Status text.
    pub text: String,
    /// Milliseconds since the (simulation) epoch.
    pub unix_ms: u64,
    /// Id of the status this replies to, when a reply.
    pub in_reply_to: Option<u64>,
    /// Geo point as `(lat, lon)`.
    pub point: Option<(f64, f64)>,
    /// Retweet counter.
    pub retweets: u32,
    /// Reply/mention counter.
    pub replies_at: u32,
    /// Favourite (like) counter.
    pub favs: u32,
    /// Hashtags (posts carry the discussion tags).
    pub hashtags: Vec<String>,
}

/// The microblog's native API.
#[derive(Debug)]
pub struct MicroblogApi<'a> {
    corpus: &'a Corpus,
    #[allow(dead_code, reason = "identity kept for symmetry with the other APIs")]
    source: SourceId,
    bucket: TokenBucket,
    faults: FaultPlan,
    /// Status ids, descending (the timeline order), built lazily.
    timeline: Vec<u64>,
}

impl<'a> MicroblogApi<'a> {
    /// Opens the API for one microblog source.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        match corpus.source(source) {
            Ok(s) if s.kind == SourceKind::Microblog => {
                let mut timeline = Vec::new();
                for &d in corpus.discussions_of_source(source) {
                    let disc = corpus.discussion(d)?;
                    let post = corpus.post(disc.root_post)?;
                    timeline.push(encode_status_id(post.published, ContentRef::Post(post.id)));
                    for &c in corpus.comments_of_discussion(d) {
                        let comment = corpus.comment(c)?;
                        timeline.push(encode_status_id(
                            comment.published,
                            ContentRef::Comment(comment.id),
                        ));
                    }
                }
                timeline.sort_unstable_by(|a, b| b.cmp(a));
                Ok(MicroblogApi {
                    corpus,
                    source,
                    bucket: TokenBucket::new(100, 3_000, now),
                    faults: FaultPlan::none(),
                    timeline,
                })
            }
            _ => Err(WrapperError::UnknownSource(source)),
        }
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Fetches a timeline page: statuses with id strictly below
    /// `max_id` (or the newest when `None`), newest first. Returns
    /// the next cursor, `None` once exhausted.
    pub fn timeline(
        &mut self,
        now: Timestamp,
        max_id: Option<u64>,
    ) -> Result<(Vec<StatusRecord>, Option<u64>), WrapperError> {
        self.bucket.try_take(now).map_err(WrapperError::from)?;
        if self.faults.should_fail() {
            return Err(WrapperError::Transient("microblog: over capacity"));
        }

        let start = match max_id {
            None => 0,
            Some(cursor) => self.timeline.partition_point(|&id| id >= cursor),
        };
        let page: Vec<u64> = self.timeline[start..]
            .iter()
            .take(PAGE_SIZE)
            .copied()
            .collect();
        let next = if start + page.len() < self.timeline.len() {
            page.last().copied()
        } else {
            None
        };
        let records = page
            .into_iter()
            .map(|id| self.render(id))
            .collect::<Result<_, _>>()?;
        Ok((records, next))
    }

    fn render(&self, status_id: u64) -> Result<StatusRecord, WrapperError> {
        let (published, content) = decode_status_id(status_id);
        let counts = InteractionCounts::tally(self.corpus, content);
        match content {
            ContentRef::Post(p) => {
                let post = self.corpus.post(p)?;
                let author = self.corpus.user(post.author)?;
                Ok(StatusRecord {
                    status_id,
                    handle: author.handle.clone(),
                    text: post.body.clone(),
                    unix_ms: published.seconds() * 1_000,
                    in_reply_to: None,
                    point: post.geo.map(|g| (g.lat, g.lon)),
                    retweets: counts.retweets,
                    replies_at: counts.mentions,
                    favs: counts.likes,
                    hashtags: post.tags.iter().map(|t| t.as_str().to_owned()).collect(),
                })
            }
            ContentRef::Comment(c) => {
                let comment = self.corpus.comment(c)?;
                let author = self.corpus.user(comment.author)?;
                // A reply's parent status: the replied comment, or the
                // discussion's root post.
                let parent = match comment.reply_to {
                    Some(parent) => {
                        let pc = self.corpus.comment(parent)?;
                        encode_status_id(pc.published, ContentRef::Comment(parent))
                    }
                    None => {
                        let d = self.corpus.discussion(comment.discussion)?;
                        let root = self.corpus.post(d.root_post)?;
                        encode_status_id(root.published, ContentRef::Post(root.id))
                    }
                };
                Ok(StatusRecord {
                    status_id,
                    handle: author.handle.clone(),
                    text: comment.body.clone(),
                    unix_ms: published.seconds() * 1_000,
                    in_reply_to: Some(parent),
                    point: comment.geo.map(|g| (g.lat, g.lon)),
                    retweets: counts.retweets,
                    replies_at: counts.mentions,
                    favs: counts.likes,
                    hashtags: Vec::new(),
                })
            }
        }
    }

    /// Total statuses on the timeline.
    pub fn status_count(&self) -> usize {
        self.timeline.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, InteractionKind};

    fn micro_corpus() -> (Corpus, SourceId) {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("events").unwrap();
        let m = b.add_source(SourceKind::Microblog, "chirper", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let v = b.add_user("v", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..60u64 {
            let (d, p) = b
                .add_discussion_with_post(
                    m,
                    cat,
                    format!("tweet {i}"),
                    u,
                    Timestamp::from_hours(i + 1),
                    format!("status text {i}"),
                    vec![obs_model::Tag::new("expo")],
                    None,
                )
                .unwrap();
            if i % 3 == 0 {
                b.add_comment(d, v, format!("reply to {i}"), Timestamp::from_hours(i + 2))
                    .unwrap();
                b.add_interaction(
                    v,
                    ContentRef::Post(p),
                    InteractionKind::Retweet,
                    Timestamp::from_hours(i + 3),
                )
                .unwrap();
            }
        }
        (b.build(), m)
    }

    #[test]
    fn snowflake_roundtrip() {
        let t = Timestamp::from_days(42);
        for content in [
            ContentRef::Post(PostId::new(17)),
            ContentRef::Comment(CommentId::new(99)),
        ] {
            let id = encode_status_id(t, content);
            let (t2, c2) = decode_status_id(id);
            assert_eq!(t2, t);
            assert_eq!(c2, content);
        }
    }

    #[test]
    fn snowflakes_are_time_ordered() {
        let early = encode_status_id(Timestamp::from_hours(1), ContentRef::Post(PostId::new(900)));
        let late = encode_status_id(Timestamp::from_hours(2), ContentRef::Post(PostId::new(1)));
        assert!(late > early);
    }

    #[test]
    fn timeline_pages_cover_everything_in_order() {
        let (corpus, m) = micro_corpus();
        let now = Timestamp::from_days(30);
        let mut api = MicroblogApi::open(&corpus, m, now).unwrap();
        let expected = api.status_count();

        let mut cursor = None;
        let mut collected: Vec<u64> = Vec::new();
        loop {
            let (page, next) = api.timeline(now, cursor).unwrap();
            collected.extend(page.iter().map(|s| s.status_id));
            match next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(collected.len(), expected);
        // Strictly descending, hence no duplicates.
        for w in collected.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn replies_point_at_their_parent() {
        let (corpus, m) = micro_corpus();
        let now = Timestamp::from_days(30);
        let mut api = MicroblogApi::open(&corpus, m, now).unwrap();
        let (page, _) = api.timeline(now, None).unwrap();
        let reply = page
            .iter()
            .find(|s| s.in_reply_to.is_some())
            .expect("a reply");
        let (_, parent) = decode_status_id(reply.in_reply_to.unwrap());
        assert!(matches!(parent, ContentRef::Post(_)));
        // Replies carry no hashtags in this dialect.
        assert!(reply.hashtags.is_empty());
    }

    #[test]
    fn counters_surface_interactions() {
        let (corpus, m) = micro_corpus();
        let now = Timestamp::from_days(30);
        let mut api = MicroblogApi::open(&corpus, m, now).unwrap();
        let (page, _) = api.timeline(now, None).unwrap();
        let retweeted: u32 = page.iter().map(|s| s.retweets).sum();
        assert!(retweeted > 0, "some statuses must show retweets");
    }

    #[test]
    fn non_microblog_is_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_category("c").unwrap();
        let blog = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let corpus = b.build();
        assert!(MicroblogApi::open(&corpus, blog, Timestamp::EPOCH).is_err());
    }
}
