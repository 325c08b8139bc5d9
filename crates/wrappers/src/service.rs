//! The uniform [`DataService`] trait and one adapter per native API.
//!
//! Adapters do the unglamorous wrapper work the paper's data services
//! needed: resolving display names back to accounts, parsing each
//! platform's date dialect, stripping HTML/BBCode, mapping permalink
//! / thread-number / snowflake / venue-code / slug identifiers back
//! to model ids, and normalizing pagination into a single opaque
//! cursor scheme.

use crate::error::WrapperError;
use crate::native::{blog, forum, microblog, review, wiki};
use crate::observation::{ContentItem, InteractionCounts, ItemKind};
use obs_model::{
    ContentRef, Corpus, DiscussionId, GeoPoint, SourceId, SourceKind, Tag, Timestamp, UserId,
};
use std::collections::HashMap;

/// An opaque pagination cursor. Each service defines its meaning
/// (page number, offset, snowflake max-id, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cursor(pub u64);

/// One fetched page of normalized items.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// Normalized items.
    pub items: Vec<ContentItem>,
    /// Cursor for the next page; `None` when exhausted.
    pub next: Option<Cursor>,
}

/// Identity card of a data service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescriptor {
    /// Wrapped source.
    pub source: SourceId,
    /// Source kind.
    pub kind: SourceKind,
    /// Source name.
    pub name: String,
}

/// A wrapper exposing one source's contents through the uniform
/// model — the paper's *data service*.
///
/// `Send` is a supertrait so a parallel sweep
/// ([`Crawler::crawl_sweep`](crate::Crawler::crawl_sweep)) can hand
/// each service to its own worker thread. Every adapter in this
/// crate satisfies it automatically: the only shared state a service
/// holds is an immutable `&Corpus` borrow (the corpus is plain owned
/// data, hence `Sync`), and everything mutable — pagination cursors,
/// [`TokenBucket`](crate::TokenBucket) tokens,
/// [`FaultPlan`](crate::FaultPlan) counters — is per-service interior
/// state owned by exactly one worker at a time.
pub trait DataService: Send {
    /// Identity of the wrapped source.
    fn descriptor(&self) -> &ServiceDescriptor;

    /// Fetches one page. `None` starts from the beginning.
    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError>;
}

/// Builds the appropriate wrapper for any source kind.
pub fn service_for<'a>(
    corpus: &'a Corpus,
    source: SourceId,
    now: Timestamp,
) -> Result<Box<dyn DataService + 'a>, WrapperError> {
    let kind = corpus
        .source(source)
        .map_err(|_| WrapperError::UnknownSource(source))?
        .kind;
    Ok(match kind {
        SourceKind::Blog => Box::new(BlogService::open(corpus, source, now)?),
        SourceKind::Forum => Box::new(ForumService::open(corpus, source, now)?),
        SourceKind::Microblog => Box::new(MicroblogService::open(corpus, source, now)?),
        SourceKind::ReviewSite => Box::new(ReviewService::open(corpus, source, now)?),
        SourceKind::Wiki => Box::new(WikiService::open(corpus, source, now)?),
    })
}

/// Shared adapter context: handle resolution and descriptor.
struct AdapterBase<'a> {
    corpus: &'a Corpus,
    descriptor: ServiceDescriptor,
    handles: HashMap<&'a str, UserId>,
}

impl<'a> AdapterBase<'a> {
    fn new(corpus: &'a Corpus, source: SourceId) -> Result<Self, WrapperError> {
        let s = corpus
            .source(source)
            .map_err(|_| WrapperError::UnknownSource(source))?;
        let handles = corpus
            .users()
            .iter()
            .map(|u| (u.handle.as_str(), u.id))
            .collect();
        Ok(AdapterBase {
            corpus,
            descriptor: ServiceDescriptor {
                source,
                kind: s.kind,
                name: s.name.clone(),
            },
            handles,
        })
    }

    fn resolve_handle(&self, handle: &str) -> Result<UserId, WrapperError> {
        self.handles
            .get(handle)
            .copied()
            .ok_or_else(|| WrapperError::MappingFailed {
                what: "user handle",
                raw: handle.to_owned(),
            })
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the argument list mirrors the ContentItem payload one-to-one; \
                  bundling them into a struct would just restate ContentItem"
    )]
    fn item(
        &self,
        discussion: DiscussionId,
        content: ContentRef,
        author: UserId,
        published: Timestamp,
        text: String,
        tags: Vec<Tag>,
        geo: Option<GeoPoint>,
    ) -> ContentItem {
        let category = self
            .corpus
            .discussion(discussion)
            .map(|d| d.category)
            .unwrap_or(obs_model::CategoryId::new(0));
        ContentItem {
            source: self.descriptor.source,
            discussion,
            content,
            kind: match content {
                ContentRef::Post(_) => ItemKind::Post,
                ContentRef::Comment(_) => ItemKind::Comment,
            },
            author,
            published,
            category,
            text,
            tags,
            geo,
            interactions: InteractionCounts::tally(self.corpus, content),
        }
    }
}

/// Strips the `<p>…</p>` wrapper of blog HTML bodies.
fn strip_html(body: &str) -> String {
    body.trim()
        .trim_start_matches("<p>")
        .trim_end_matches("</p>")
        .to_owned()
}

/// Parses the blog's `"lat,lon"` geo attribute.
fn parse_geo_attr(attr: &str) -> Result<GeoPoint, WrapperError> {
    let bad = || WrapperError::MappingFailed {
        what: "geo attribute",
        raw: attr.to_owned(),
    };
    let (lat, lon) = attr.split_once(',').ok_or_else(bad)?;
    let lat: f64 = lat.trim().parse().map_err(|_| bad())?;
    let lon: f64 = lon.trim().parse().map_err(|_| bad())?;
    Ok(GeoPoint::new(lat, lon))
}

// ---------------------------------------------------------------- blog

/// Wrapper over the blog dialect. Cursor: page number.
pub struct BlogService<'a> {
    base: AdapterBase<'a>,
    api: blog::BlogApi<'a>,
}

impl<'a> BlogService<'a> {
    /// Opens the service.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        Ok(BlogService {
            base: AdapterBase::new(corpus, source)?,
            api: blog::BlogApi::open(corpus, source, now)?,
        })
    }

    /// Replaces the underlying API (fault-injection hook for tests).
    pub fn with_api(mut self, api: blog::BlogApi<'a>) -> Self {
        self.api = api;
        self
    }
}

impl DataService for BlogService<'_> {
    fn descriptor(&self) -> &ServiceDescriptor {
        &self.base.descriptor
    }

    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError> {
        let page_no = cursor.map_or(0, |c| c.0 as usize);
        let page = self.api.posts_page(now, page_no)?;
        let mut items = Vec::new();
        for post in &page.posts {
            let discussion = blog::discussion_of_permalink(&post.permalink)?;
            let author = self.base.resolve_handle(&post.author_name)?;
            let published = blog::parse_iso(&post.posted_iso)?;
            let root = self
                .base
                .corpus
                .discussion(discussion)
                .map_err(|_| WrapperError::MappingFailed {
                    what: "blog discussion",
                    raw: post.permalink.clone(),
                })?
                .root_post;
            let geo = post.geo_attr.as_deref().map(parse_geo_attr).transpose()?;
            items.push(self.base.item(
                discussion,
                ContentRef::Post(root),
                author,
                published,
                strip_html(&post.html_body),
                post.labels.iter().map(Tag::new).collect(),
                geo,
            ));
            let comment_ids = self.base.corpus.comments_of_discussion(discussion);
            for (idx, c) in post.comments.iter().enumerate() {
                let cid =
                    comment_ids
                        .get(idx)
                        .copied()
                        .ok_or_else(|| WrapperError::MappingFailed {
                            what: "blog comment index",
                            raw: idx.to_string(),
                        })?;
                items.push(self.base.item(
                    discussion,
                    ContentRef::Comment(cid),
                    self.base.resolve_handle(&c.commenter)?,
                    blog::parse_iso(&c.posted_iso)?,
                    strip_html(&c.html_body),
                    Vec::new(),
                    None,
                ));
            }
        }
        let next = if page_no + 1 < page.total_pages {
            Some(Cursor(page_no as u64 + 1))
        } else {
            None
        };
        Ok(Page { items, next })
    }
}

// --------------------------------------------------------------- forum

/// Threads consumed per `fetch` call.
const FORUM_THREADS_PER_FETCH: usize = 10;
/// Replies requested per native call.
const FORUM_REPLIES_LIMIT: usize = 50;

/// Wrapper over the forum dialect. Cursor: thread offset.
pub struct ForumService<'a> {
    base: AdapterBase<'a>,
    api: forum::ForumApi<'a>,
}

impl<'a> ForumService<'a> {
    /// Opens the service.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        Ok(ForumService {
            base: AdapterBase::new(corpus, source)?,
            api: forum::ForumApi::open(corpus, source, now)?,
        })
    }

    /// Replaces the underlying API (fault-injection hook for tests).
    pub fn with_api(mut self, api: forum::ForumApi<'a>) -> Self {
        self.api = api;
        self
    }
}

impl DataService for ForumService<'_> {
    fn descriptor(&self) -> &ServiceDescriptor {
        &self.base.descriptor
    }

    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError> {
        let offset = cursor.map_or(0, |c| c.0 as usize);
        let (threads, total) = self.api.threads(now, offset, FORUM_THREADS_PER_FETCH)?;
        let mut items = Vec::new();
        for t in &threads {
            let discussion = forum::discussion_of_thread_no(t.thread_no)?;
            let starter = self.base.resolve_handle(&t.starter)?;
            let d = self
                .base
                .corpus
                .discussion(discussion)
                .map_err(|_| WrapperError::BadCursor(format!("thread {}", t.thread_no)))?;
            items.push(self.base.item(
                discussion,
                ContentRef::Post(d.root_post),
                starter,
                Timestamp(t.started_epoch),
                t.subject.clone(),
                Vec::new(),
                None,
            ));

            // Drain the thread's replies.
            let comment_ids = self.base.corpus.comments_of_discussion(discussion);
            let mut reply_offset = 0;
            loop {
                let (replies, reply_total) =
                    self.api
                        .replies(now, t.thread_no, reply_offset, FORUM_REPLIES_LIMIT)?;
                for r in &replies {
                    let idx = (r.reply_no - 1) as usize;
                    let cid = comment_ids.get(idx).copied().ok_or_else(|| {
                        WrapperError::MappingFailed {
                            what: "forum reply number",
                            raw: r.reply_no.to_string(),
                        }
                    })?;
                    let (_, bare) = forum::strip_quote(&r.body_bbcode);
                    items.push(self.base.item(
                        discussion,
                        ContentRef::Comment(cid),
                        self.base.resolve_handle(&r.author)?,
                        Timestamp(r.posted_epoch),
                        bare.to_owned(),
                        Vec::new(),
                        None,
                    ));
                }
                reply_offset += replies.len();
                if reply_offset >= reply_total {
                    break;
                }
            }
        }
        let consumed = offset + threads.len();
        let next = if consumed < total {
            Some(Cursor(consumed as u64))
        } else {
            None
        };
        Ok(Page { items, next })
    }
}

// ----------------------------------------------------------- microblog

/// Wrapper over the microblog dialect. Cursor: snowflake max-id.
pub struct MicroblogService<'a> {
    base: AdapterBase<'a>,
    api: microblog::MicroblogApi<'a>,
}

impl<'a> MicroblogService<'a> {
    /// Opens the service.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        Ok(MicroblogService {
            base: AdapterBase::new(corpus, source)?,
            api: microblog::MicroblogApi::open(corpus, source, now)?,
        })
    }

    /// Replaces the underlying API (fault-injection hook for tests).
    pub fn with_api(mut self, api: microblog::MicroblogApi<'a>) -> Self {
        self.api = api;
        self
    }
}

impl DataService for MicroblogService<'_> {
    fn descriptor(&self) -> &ServiceDescriptor {
        &self.base.descriptor
    }

    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError> {
        let (statuses, next) = self.api.timeline(now, cursor.map(|c| c.0))?;
        let mut items = Vec::with_capacity(statuses.len());
        for s in &statuses {
            let (_, content) = microblog::decode_status_id(s.status_id);
            let discussion = self.base.corpus.discussion_of(content).map_err(|_| {
                WrapperError::MappingFailed {
                    what: "status id",
                    raw: s.status_id.to_string(),
                }
            })?;
            items.push(self.base.item(
                discussion,
                content,
                self.base.resolve_handle(&s.handle)?,
                Timestamp(s.unix_ms / 1_000),
                s.text.clone(),
                s.hashtags.iter().map(Tag::new).collect(),
                s.point.map(|(lat, lon)| GeoPoint::new(lat, lon)),
            ));
        }
        Ok(Page {
            items,
            next: next.map(Cursor),
        })
    }
}

// -------------------------------------------------------------- review

/// Wrapper over the review dialect. Cursor: venue page.
pub struct ReviewService<'a> {
    base: AdapterBase<'a>,
    api: review::ReviewApi<'a>,
}

impl<'a> ReviewService<'a> {
    /// Opens the service.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        Ok(ReviewService {
            base: AdapterBase::new(corpus, source)?,
            api: review::ReviewApi::open(corpus, source, now)?,
        })
    }

    /// Replaces the underlying API (fault-injection hook for tests).
    pub fn with_api(mut self, api: review::ReviewApi<'a>) -> Self {
        self.api = api;
        self
    }
}

impl DataService for ReviewService<'_> {
    fn descriptor(&self) -> &ServiceDescriptor {
        &self.base.descriptor
    }

    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError> {
        let page_no = cursor.map_or(0, |c| c.0 as usize);
        let (venues, total_pages) = self.api.venues(now, page_no)?;
        let mut items = Vec::new();
        for v in &venues {
            let discussion = review::discussion_of_venue_code(&v.venue_code)?;
            let d = self
                .base
                .corpus
                .discussion(discussion)
                .map_err(|_| WrapperError::BadCursor(v.venue_code.clone()))?;
            let root_post = self.base.corpus.post(d.root_post)?;
            items.push(self.base.item(
                discussion,
                ContentRef::Post(d.root_post),
                d.opened_by,
                d.opened_at,
                root_post.body.clone(),
                root_post.tags.clone(),
                root_post.geo,
            ));

            let comment_ids = self.base.corpus.comments_of_discussion(discussion);
            let mut review_page = 0;
            loop {
                let (reviews, review_pages) = self.api.reviews(now, &v.venue_code, review_page)?;
                let base_idx = review_page * review::REVIEWS_PAGE_SIZE;
                for (i, r) in reviews.iter().enumerate() {
                    let cid = comment_ids.get(base_idx + i).copied().ok_or_else(|| {
                        WrapperError::MappingFailed {
                            what: "review index",
                            raw: (base_idx + i).to_string(),
                        }
                    })?;
                    let comment = self.base.corpus.comment(cid)?;
                    items.push(self.base.item(
                        discussion,
                        ContentRef::Comment(cid),
                        self.base.resolve_handle(&r.reviewer)?,
                        comment.published,
                        r.text.clone(),
                        Vec::new(),
                        comment.geo,
                    ));
                }
                review_page += 1;
                if review_page >= review_pages {
                    break;
                }
            }
        }
        let next = if page_no + 1 < total_pages {
            Some(Cursor(page_no as u64 + 1))
        } else {
            None
        };
        Ok(Page { items, next })
    }
}

// ---------------------------------------------------------------- wiki

/// Articles consumed per `fetch` call.
const WIKI_ARTICLES_PER_FETCH: usize = 25;

/// Wrapper over the wiki dialect. Cursor: article offset.
pub struct WikiService<'a> {
    base: AdapterBase<'a>,
    api: wiki::WikiApi<'a>,
}

impl<'a> WikiService<'a> {
    /// Opens the service.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        Ok(WikiService {
            base: AdapterBase::new(corpus, source)?,
            api: wiki::WikiApi::open(corpus, source, now)?,
        })
    }

    /// Replaces the underlying API (fault-injection hook for tests).
    pub fn with_api(mut self, api: wiki::WikiApi<'a>) -> Self {
        self.api = api;
        self
    }
}

impl DataService for WikiService<'_> {
    fn descriptor(&self) -> &ServiceDescriptor {
        &self.base.descriptor
    }

    fn fetch(&mut self, now: Timestamp, cursor: Option<Cursor>) -> Result<Page, WrapperError> {
        let offset = cursor.map_or(0, |c| c.0 as usize);
        let (articles, total) = self.api.articles(now, offset, WIKI_ARTICLES_PER_FETCH)?;
        let mut items = Vec::new();
        for a in &articles {
            let discussion = wiki::discussion_of_slug(&a.slug)?;
            let d = self
                .base
                .corpus
                .discussion(discussion)
                .map_err(|_| WrapperError::BadCursor(a.slug.clone()))?;
            // Wikitext: drop the heading line the API prepends.
            let body = a
                .wikitext
                .split_once('\n')
                .map(|(_, rest)| rest)
                .unwrap_or(&a.wikitext)
                .to_owned();
            items.push(self.base.item(
                discussion,
                ContentRef::Post(d.root_post),
                self.base.resolve_handle(&a.curator)?,
                d.opened_at,
                body,
                Vec::new(),
                None,
            ));
            let comment_ids = self.base.corpus.comments_of_discussion(discussion);
            for (idx, rev) in a.revisions.iter().enumerate() {
                let cid =
                    comment_ids
                        .get(idx)
                        .copied()
                        .ok_or_else(|| WrapperError::MappingFailed {
                            what: "wiki revision index",
                            raw: idx.to_string(),
                        })?;
                let comment = self.base.corpus.comment(cid)?;
                items.push(self.base.item(
                    discussion,
                    ContentRef::Comment(cid),
                    self.base.resolve_handle(&rev.editor)?,
                    comment.published,
                    rev.note.clone(),
                    Vec::new(),
                    None,
                ));
            }
        }
        let consumed = offset + articles.len();
        let next = if consumed < total {
            Some(Cursor(consumed as u64))
        } else {
            None
        };
        Ok(Page { items, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_synth::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::small(101))
    }

    /// Drains a service completely, asserting cursor progress.
    fn drain(service: &mut dyn DataService, now: Timestamp) -> Vec<ContentItem> {
        let mut items = Vec::new();
        let mut cursor = None;
        let mut guard = 0;
        loop {
            let page = service.fetch(now, cursor).expect("fetch");
            items.extend(page.items);
            guard += 1;
            assert!(guard < 10_000, "cursor loop");
            match page.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        items
    }

    #[test]
    fn every_kind_has_a_service_and_yields_all_items() {
        let w = world();
        let now = w.now;
        for s in w.corpus.sources() {
            let mut service = service_for(&w.corpus, s.id, now).expect("service");
            assert_eq!(service.descriptor().source, s.id);
            assert_eq!(service.descriptor().kind, s.kind);
            let items = drain(service.as_mut(), now);

            // Ground truth: discussions + comments of the source.
            let mut expected = 0;
            for &d in w.corpus.discussions_of_source(s.id) {
                expected += 1 + w.corpus.comments_of_discussion(d).len();
            }
            assert_eq!(
                items.len(),
                expected,
                "item count for {} ({})",
                s.name,
                s.kind
            );

            // Every item belongs to the source and has a resolved author.
            for item in &items {
                assert_eq!(item.source, s.id);
                assert!(w.corpus.user(item.author).is_ok());
                let truth = w.corpus.author_of(item.content).unwrap();
                assert_eq!(item.author, truth, "author mapping for {:?}", item.content);
            }
        }
    }

    #[test]
    fn timestamps_survive_the_format_roundtrips() {
        let w = world();
        let now = w.now;
        for s in w.corpus.sources() {
            let mut service = service_for(&w.corpus, s.id, now).expect("service");
            for item in drain(service.as_mut(), now) {
                let truth = match item.content {
                    ContentRef::Post(p) => w.corpus.post(p).unwrap().published,
                    ContentRef::Comment(c) => w.corpus.comment(c).unwrap().published,
                };
                assert_eq!(item.published, truth, "timestamp for {:?}", item.content);
            }
        }
    }

    #[test]
    fn interaction_counts_match_corpus_tally() {
        let w = world();
        let now = w.now;
        let s = w.corpus.sources().first().unwrap();
        let mut service = service_for(&w.corpus, s.id, now).unwrap();
        for item in drain(service.as_mut(), now) {
            assert_eq!(
                item.interactions,
                InteractionCounts::tally(&w.corpus, item.content)
            );
        }
    }

    #[test]
    fn unknown_source_is_rejected() {
        let w = world();
        assert!(matches!(
            service_for(&w.corpus, SourceId::new(9_999), w.now),
            Err(WrapperError::UnknownSource(_))
        ));
    }

    #[test]
    fn geo_attr_parsing() {
        assert_eq!(
            parse_geo_attr("45.46,9.19").unwrap(),
            GeoPoint::new(45.46, 9.19)
        );
        assert!(parse_geo_attr("45.46").is_err());
        assert!(parse_geo_attr("a,b").is_err());
    }

    #[test]
    fn html_stripping() {
        assert_eq!(strip_html("<p>ciao</p>"), "ciao");
        assert_eq!(strip_html("plain"), "plain");
        assert_eq!(strip_html("  <p>padded</p>  "), "padded");
    }
}
