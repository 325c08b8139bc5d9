//! The forum dialect: numbered threads per board, BBCode reply
//! bodies with quotes, epoch-second dates, offset/limit pagination.

use crate::error::WrapperError;
use crate::fault::FaultPlan;
use crate::rate::TokenBucket;
use obs_model::{Corpus, DiscussionId, SourceId, SourceKind, Timestamp};

/// Offset applied to discussion ids to form thread numbers (old
/// forum installations never start at zero).
pub const THREAD_NO_BASE: u64 = 1_000;

/// A thread header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForumThreadRecord {
    /// Thread number (discussion id + [`THREAD_NO_BASE`]).
    pub thread_no: u64,
    /// Board name (the category).
    pub board: String,
    /// Thread subject.
    pub subject: String,
    /// Starter's username.
    pub starter: String,
    /// Start time, epoch seconds (simulation time).
    pub started_epoch: u64,
    /// Whether moderators locked the thread.
    pub locked: bool,
    /// Number of replies.
    pub reply_count: u32,
    /// Aggregate reaction score across the thread.
    pub reaction_total: u32,
}

/// One reply within a thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForumReplyRecord {
    /// Reply number within the thread (1-based).
    pub reply_no: u64,
    /// Author username.
    pub author: String,
    /// BBCode body; quoted replies start with `[quote=#n]`.
    pub body_bbcode: String,
    /// Post time, epoch seconds.
    pub posted_epoch: u64,
}

/// The forum's native API.
#[derive(Debug)]
pub struct ForumApi<'a> {
    corpus: &'a Corpus,
    source: SourceId,
    bucket: TokenBucket,
    faults: FaultPlan,
}

impl<'a> ForumApi<'a> {
    /// Opens the API for one forum source.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        match corpus.source(source) {
            Ok(s) if s.kind == SourceKind::Forum => Ok(ForumApi {
                corpus,
                source,
                bucket: TokenBucket::new(60, 1_200, now),
                faults: FaultPlan::none(),
            }),
            _ => Err(WrapperError::UnknownSource(source)),
        }
    }

    /// Installs a fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    fn meter(&mut self, now: Timestamp) -> Result<(), WrapperError> {
        self.bucket.try_take(now).map_err(WrapperError::from)?;
        if self.faults.should_fail() {
            return Err(WrapperError::Transient("forum: database timeout"));
        }
        Ok(())
    }

    /// Lists thread headers with offset/limit; also returns the total
    /// thread count.
    pub fn threads(
        &mut self,
        now: Timestamp,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<ForumThreadRecord>, usize), WrapperError> {
        self.meter(now)?;
        let all = self.corpus.discussions_of_source(self.source);
        let total = all.len();
        if offset > total {
            return Err(WrapperError::BadCursor(format!(
                "offset {offset} > total {total}"
            )));
        }
        let slice = &all[offset..(offset + limit).min(total)];
        let records = slice
            .iter()
            .map(|&d| self.render_thread(d))
            .collect::<Result<_, _>>()?;
        Ok((records, total))
    }

    /// Lists replies of a thread with offset/limit; also returns the
    /// total reply count.
    pub fn replies(
        &mut self,
        now: Timestamp,
        thread_no: u64,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<ForumReplyRecord>, usize), WrapperError> {
        self.meter(now)?;
        let discussion = discussion_of_thread_no(thread_no)?;
        let d = self
            .corpus
            .discussion(discussion)
            .map_err(|_| WrapperError::BadCursor(format!("thread {thread_no}")))?;
        if d.source != self.source {
            return Err(WrapperError::BadCursor(format!(
                "thread {thread_no} (foreign board)"
            )));
        }
        let comment_ids = self.corpus.comments_of_discussion(discussion);
        let total = comment_ids.len();
        if offset > total {
            return Err(WrapperError::BadCursor(format!(
                "offset {offset} > total {total}"
            )));
        }
        let slice = &comment_ids[offset..(offset + limit).min(total)];
        let records = slice
            .iter()
            .enumerate()
            .map(|(i, &cid)| {
                let c = self.corpus.comment(cid)?;
                let author = self.corpus.user(c.author)?;
                let body = match c
                    .reply_to
                    .and_then(|p| comment_ids.iter().position(|&x| x == p))
                {
                    Some(pos) => format!("[quote=#{}]…[/quote] {}", pos + 1, c.body),
                    None => c.body.clone(),
                };
                Ok(ForumReplyRecord {
                    reply_no: (offset + i + 1) as u64,
                    author: author.handle.clone(),
                    body_bbcode: body,
                    posted_epoch: c.published.seconds(),
                })
            })
            .collect::<Result<_, WrapperError>>()?;
        Ok((records, total))
    }

    fn render_thread(&self, id: DiscussionId) -> Result<ForumThreadRecord, WrapperError> {
        let d = self.corpus.discussion(id)?;
        let starter = self.corpus.user(d.opened_by)?;
        let board = self
            .corpus
            .categories()
            .name(d.category)
            .unwrap_or("general")
            .to_owned();
        let reaction_total: u32 = self
            .corpus
            .comments_of_discussion(id)
            .iter()
            .map(|&c| {
                crate::observation::InteractionCounts::tally(
                    self.corpus,
                    obs_model::ContentRef::Comment(c),
                )
                .active_total()
            })
            .sum();
        Ok(ForumThreadRecord {
            thread_no: id.raw() as u64 + THREAD_NO_BASE,
            board,
            subject: d.title.clone(),
            starter: starter.handle.clone(),
            started_epoch: d.opened_at.seconds(),
            locked: d.closed,
            reply_count: self.corpus.comments_of_discussion(id).len() as u32,
            reaction_total,
        })
    }
}

/// Maps a thread number back to a discussion id.
pub fn discussion_of_thread_no(thread_no: u64) -> Result<DiscussionId, WrapperError> {
    thread_no
        .checked_sub(THREAD_NO_BASE)
        .and_then(|n| u32::try_from(n).ok())
        .map(DiscussionId::new)
        .ok_or_else(|| WrapperError::MappingFailed {
            what: "forum thread number",
            raw: thread_no.to_string(),
        })
}

/// Strips a leading `[quote=#n]…[/quote]` marker, returning the bare
/// body and the quoted reply number.
pub fn strip_quote(body: &str) -> (Option<u64>, &str) {
    if let Some(rest) = body.strip_prefix("[quote=#") {
        if let Some((n, tail)) = rest.split_once(']') {
            if let Ok(n) = n.parse::<u64>() {
                if let Some(tail) = tail.strip_prefix("…[/quote] ") {
                    return (Some(n), tail);
                }
            }
        }
    }
    (None, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder};

    fn forum_corpus() -> (Corpus, SourceId) {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("transport").unwrap();
        let forum = b.add_source(SourceKind::Forum, "ask-milano", Timestamp::EPOCH);
        let u1 = b.add_user("u1", AccountKind::Person, Timestamp::EPOCH);
        let u2 = b.add_user("u2", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..5u64 {
            let d = b
                .add_discussion(
                    forum,
                    cat,
                    format!("thread {i}"),
                    u1,
                    Timestamp::from_days(i),
                )
                .unwrap();
            let c = b
                .add_comment(
                    d,
                    u2,
                    format!("first reply {i}"),
                    Timestamp::from_days(i + 1),
                )
                .unwrap();
            b.add_reply(d, u1, "agreed", Timestamp::from_days(i + 2), c)
                .expect("c is a comment of d");
        }
        b.close_discussion(DiscussionId::new(0)).unwrap();
        (b.build(), forum)
    }

    #[test]
    fn threads_listing_with_offset_limit() {
        let (corpus, forum) = forum_corpus();
        let now = Timestamp::from_days(50);
        let mut api = ForumApi::open(&corpus, forum, now).unwrap();
        let (first_two, total) = api.threads(now, 0, 2).unwrap();
        assert_eq!(total, 5);
        assert_eq!(first_two.len(), 2);
        assert_eq!(first_two[0].thread_no, THREAD_NO_BASE);
        assert!(first_two[0].locked);
        assert!(!first_two[1].locked);
        assert_eq!(first_two[0].board, "transport");
        let (rest, _) = api.threads(now, 4, 10).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn replies_carry_quotes() {
        let (corpus, forum) = forum_corpus();
        let now = Timestamp::from_days(50);
        let mut api = ForumApi::open(&corpus, forum, now).unwrap();
        let (replies, total) = api.replies(now, THREAD_NO_BASE, 0, 10).unwrap();
        assert_eq!(total, 2);
        assert_eq!(replies[0].reply_no, 1);
        let (quoted, bare) = strip_quote(&replies[1].body_bbcode);
        assert_eq!(quoted, Some(1));
        assert_eq!(bare, "agreed");
        let (none, bare0) = strip_quote(&replies[0].body_bbcode);
        assert_eq!(none, None);
        assert_eq!(bare0, "first reply 0");
    }

    #[test]
    fn foreign_thread_is_rejected() {
        let (corpus, forum) = forum_corpus();
        let now = Timestamp::from_days(50);
        let mut api = ForumApi::open(&corpus, forum, now).unwrap();
        assert!(api.replies(now, THREAD_NO_BASE + 999, 0, 10).is_err());
        assert!(api.replies(now, 3, 0, 10).is_err()); // below base
    }

    #[test]
    fn offset_beyond_total_is_bad_cursor() {
        let (corpus, forum) = forum_corpus();
        let now = Timestamp::from_days(50);
        let mut api = ForumApi::open(&corpus, forum, now).unwrap();
        assert!(matches!(
            api.threads(now, 99, 5),
            Err(WrapperError::BadCursor(_))
        ));
    }

    #[test]
    fn thread_no_roundtrip() {
        let d = discussion_of_thread_no(THREAD_NO_BASE + 7).unwrap();
        assert_eq!(d, DiscussionId::new(7));
        assert!(discussion_of_thread_no(2).is_err());
    }
}
