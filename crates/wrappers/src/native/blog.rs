//! The blog dialect: permalinked posts with inline comment trails,
//! pseudo-ISO dates, HTML bodies, and page-number pagination.

use crate::error::WrapperError;
use crate::fault::FaultPlan;
use crate::rate::TokenBucket;
use obs_model::{Corpus, DiscussionId, SourceId, SourceKind, Timestamp};

/// Posts per page.
pub const PAGE_SIZE: usize = 10;

/// A comment as the blog platform renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlogCommentRecord {
    /// Display name of the commenter.
    pub commenter: String,
    /// Pseudo-ISO timestamp, e.g. `"d12T08:30:45"`.
    pub posted_iso: String,
    /// HTML body.
    pub html_body: String,
    /// Index (within this post's trail) of the comment replied to.
    pub in_reply_to_index: Option<usize>,
}

/// A post as the blog platform renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlogPostRecord {
    /// Permalink; encodes the discussion id as `…/post-<n>`.
    pub permalink: String,
    /// Post title.
    pub title: String,
    /// HTML body.
    pub html_body: String,
    /// Author display name.
    pub author_name: String,
    /// Pseudo-ISO timestamp.
    pub posted_iso: String,
    /// Labels (the platform's word for tags).
    pub labels: Vec<String>,
    /// Geo attribute as `"lat,lon"` when the author shared one.
    pub geo_attr: Option<String>,
    /// Like counter rendered on the post.
    pub like_count: u32,
    /// Share counter rendered on the post.
    pub share_count: u32,
    /// Whether comments were closed by the author.
    pub comments_closed: bool,
    /// The comment trail, oldest first.
    pub comments: Vec<BlogCommentRecord>,
}

/// A page of blog posts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlogPage {
    /// Posts on this page, oldest first.
    pub posts: Vec<BlogPostRecord>,
    /// Zero-based page index served.
    pub page: usize,
    /// Total number of pages.
    pub total_pages: usize,
}

/// Renders a timestamp in the blog's pseudo-ISO dialect.
pub fn format_iso(t: Timestamp) -> String {
    let day = t.days();
    let rem = t.seconds() % obs_model::SECONDS_PER_DAY;
    format!(
        "d{day}T{:02}:{:02}:{:02}",
        rem / 3600,
        (rem % 3600) / 60,
        rem % 60
    )
}

/// Parses the blog's pseudo-ISO dialect back into a timestamp.
pub fn parse_iso(s: &str) -> Result<Timestamp, WrapperError> {
    let bad = || WrapperError::MappingFailed {
        what: "blog date",
        raw: s.to_owned(),
    };
    let rest = s.strip_prefix('d').ok_or_else(bad)?;
    let (day, clock) = rest.split_once('T').ok_or_else(bad)?;
    let day: u64 = day.parse().map_err(|_| bad())?;
    let mut parts = clock.split(':');
    let hh: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let mm: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let ss: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    if parts.next().is_some() || hh >= 24 || mm >= 60 || ss >= 60 {
        return Err(bad());
    }
    Ok(Timestamp(
        day * obs_model::SECONDS_PER_DAY + hh * 3600 + mm * 60 + ss,
    ))
}

/// The blog's native API, backed by the corpus.
#[derive(Debug)]
pub struct BlogApi<'a> {
    corpus: &'a Corpus,
    source: SourceId,
    bucket: TokenBucket,
    faults: FaultPlan,
}

impl<'a> BlogApi<'a> {
    /// Opens the API for one blog source. Errors when the source is
    /// not a blog.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        match corpus.source(source) {
            Ok(s) if s.kind == SourceKind::Blog => Ok(BlogApi {
                corpus,
                source,
                bucket: TokenBucket::new(30, 600, now),
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

    /// Replaces the rate-limit bucket (quota-exhaustion hook for
    /// tests — e.g. a zero-rate bucket that never refills).
    pub fn with_rate_limit(mut self, bucket: TokenBucket) -> Self {
        self.bucket = bucket;
        self
    }

    /// Fetches one page of posts (oldest first).
    pub fn posts_page(&mut self, now: Timestamp, page: usize) -> Result<BlogPage, WrapperError> {
        self.bucket.try_take(now).map_err(WrapperError::from)?;
        if self.faults.should_fail() {
            return Err(WrapperError::Transient("blog: 502 bad gateway"));
        }

        let discussions = self.corpus.discussions_of_source(self.source);
        let total_pages = discussions.len().div_ceil(PAGE_SIZE).max(1);
        if page >= total_pages {
            return Err(WrapperError::BadCursor(format!(
                "page {page} of {total_pages}"
            )));
        }
        let slice =
            &discussions[page * PAGE_SIZE..(page * PAGE_SIZE + PAGE_SIZE).min(discussions.len())];
        let posts = slice
            .iter()
            .map(|&d| self.render_post(d))
            .collect::<Result<_, _>>()?;
        Ok(BlogPage {
            posts,
            page,
            total_pages,
        })
    }

    fn render_post(&self, id: DiscussionId) -> Result<BlogPostRecord, WrapperError> {
        let d = self.corpus.discussion(id)?;
        let post = self.corpus.post(d.root_post)?;
        let author = self.corpus.user(post.author)?;
        let counts = crate::observation::InteractionCounts::tally(
            self.corpus,
            obs_model::ContentRef::Post(post.id),
        );

        let comment_ids = self.corpus.comments_of_discussion(id);
        let comments = comment_ids
            .iter()
            .map(|&cid| {
                let c = self.corpus.comment(cid)?;
                let commenter = self.corpus.user(c.author)?;
                Ok(BlogCommentRecord {
                    commenter: commenter.handle.clone(),
                    posted_iso: format_iso(c.published),
                    html_body: format!("<p>{}</p>", c.body),
                    in_reply_to_index: c
                        .reply_to
                        .and_then(|parent| comment_ids.iter().position(|&x| x == parent)),
                })
            })
            .collect::<Result<_, WrapperError>>()?;

        Ok(BlogPostRecord {
            permalink: format!("{}/post-{}", self.corpus.source(self.source)?.url, id.raw()),
            title: d.title.clone(),
            html_body: format!("<p>{}</p>", post.body),
            author_name: author.handle.clone(),
            posted_iso: format_iso(post.published),
            labels: post.tags.iter().map(|t| t.as_str().to_owned()).collect(),
            geo_attr: post.geo.map(|g| format!("{:.5},{:.5}", g.lat, g.lon)),
            like_count: counts.likes,
            share_count: counts.shares,
            comments_closed: d.closed,
            comments,
        })
    }
}

/// Extracts the discussion id from a blog permalink.
pub fn discussion_of_permalink(permalink: &str) -> Result<DiscussionId, WrapperError> {
    permalink
        .rsplit_once("/post-")
        .and_then(|(_, n)| n.parse::<u32>().ok())
        .map(DiscussionId::new)
        .ok_or_else(|| WrapperError::MappingFailed {
            what: "blog permalink",
            raw: permalink.to_owned(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder};

    fn blog_corpus() -> (Corpus, SourceId) {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("attractions").unwrap();
        let blog = b.add_source(SourceKind::Blog, "milan-diaries", Timestamp::EPOCH);
        let ada = b.add_user("ada", AccountKind::Person, Timestamp::EPOCH);
        let eve = b.add_user("eve", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..23u64 {
            let (d, _) = b
                .add_discussion_with_post(
                    blog,
                    cat,
                    format!("post number {i}"),
                    ada,
                    Timestamp::from_days(i + 1),
                    format!("body {i}"),
                    vec![obs_model::Tag::new("duomo")],
                    None,
                )
                .unwrap();
            let c1 = b
                .add_comment(d, eve, "nice!", Timestamp::from_days(i + 2))
                .unwrap();
            b.add_reply(d, ada, "thanks", Timestamp::from_days(i + 3), c1)
                .expect("c1 is a comment of d");
        }
        (b.build(), blog)
    }

    #[test]
    fn iso_roundtrip() {
        for t in [
            Timestamp::EPOCH,
            Timestamp(86_399),
            Timestamp::from_days(45).plus(obs_model::Duration(3_723)),
        ] {
            assert_eq!(parse_iso(&format_iso(t)).unwrap(), t);
        }
    }

    #[test]
    fn iso_rejects_garbage() {
        for bad in [
            "",
            "12T00:00:00",
            "dxTy",
            "d1T25:00:00",
            "d1T00:61:00",
            "d1T00:00:00:00",
        ] {
            assert!(parse_iso(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn pagination_covers_all_posts_without_duplicates() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now).unwrap();
        let first = api.posts_page(now, 0).unwrap();
        assert_eq!(first.total_pages, 3);
        let mut seen = Vec::new();
        for page in 0..first.total_pages {
            let p = api.posts_page(now, page).unwrap();
            for post in &p.posts {
                seen.push(post.permalink.clone());
            }
        }
        assert_eq!(seen.len(), 23);
        let unique: std::collections::HashSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), 23);
    }

    #[test]
    fn out_of_range_page_is_a_bad_cursor() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now).unwrap();
        assert!(matches!(
            api.posts_page(now, 99),
            Err(WrapperError::BadCursor(_))
        ));
    }

    #[test]
    fn comment_trail_preserves_reply_structure() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now).unwrap();
        let page = api.posts_page(now, 0).unwrap();
        let post = &page.posts[0];
        assert_eq!(post.comments.len(), 2);
        assert_eq!(post.comments[0].in_reply_to_index, None);
        assert_eq!(post.comments[1].in_reply_to_index, Some(0));
        assert!(post.comments[0].html_body.starts_with("<p>"));
    }

    #[test]
    fn rate_limit_kicks_in_and_recovers() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now).unwrap();
        let mut limited = false;
        for _ in 0..40 {
            match api.posts_page(now, 0) {
                Ok(_) => {}
                Err(WrapperError::RateLimited { retry_after_secs }) => {
                    limited = true;
                    assert!(retry_after_secs > 0);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(limited, "burst of 30 must exhaust the bucket");
        // After waiting, the call succeeds again.
        let later = now.plus(obs_model::Duration(60));
        assert!(api.posts_page(later, 0).is_ok());
    }

    #[test]
    fn fault_plan_injects_transient_errors() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now)
            .unwrap()
            .with_faults(FaultPlan::every(2));
        assert!(api.posts_page(now, 0).is_ok());
        assert!(matches!(
            api.posts_page(now, 0),
            Err(WrapperError::Transient(_))
        ));
    }

    #[test]
    fn non_blog_sources_are_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_category("c").unwrap();
        let forum = b.add_source(SourceKind::Forum, "f", Timestamp::EPOCH);
        let corpus = b.build();
        assert!(matches!(
            BlogApi::open(&corpus, forum, Timestamp::EPOCH),
            Err(WrapperError::UnknownSource(_))
        ));
    }

    #[test]
    fn permalink_roundtrip() {
        let (corpus, blog) = blog_corpus();
        let now = Timestamp::from_days(100);
        let mut api = BlogApi::open(&corpus, blog, now).unwrap();
        let page = api.posts_page(now, 0).unwrap();
        let d = discussion_of_permalink(&page.posts[3].permalink).unwrap();
        assert_eq!(corpus.discussion(d).unwrap().title, "post number 3");
        assert!(discussion_of_permalink("https://x.example/about").is_err());
    }
}
