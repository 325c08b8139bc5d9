//! The review-site dialect: venues with star-rated reviews, day
//! ordinals for visit dates, helpful-vote counters, page-number
//! pagination at both levels.

use crate::error::WrapperError;
use crate::fault::FaultPlan;
use crate::observation::InteractionCounts;
use crate::rate::TokenBucket;
use obs_model::{ContentRef, Corpus, DiscussionId, SourceId, SourceKind, Timestamp};

/// Venues per listing page.
pub const VENUES_PAGE_SIZE: usize = 10;
/// Reviews per venue page.
pub const REVIEWS_PAGE_SIZE: usize = 20;

/// A venue (one reviewable place; maps to a discussion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VenueRecord {
    /// Venue code, e.g. `"V-42"`.
    pub venue_code: String,
    /// Display name.
    pub name: String,
    /// Venue category label.
    pub category: String,
    /// Total review count.
    pub review_count: u32,
}

/// One review of a venue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReviewRecord {
    /// Reviewer username.
    pub reviewer: String,
    /// Star rating 1–5.
    pub stars: u8,
    /// Review text.
    pub text: String,
    /// Day ordinal of the visit (simulation day).
    pub visited_day: u32,
    /// "Was this helpful?" votes.
    pub helpful_votes: u32,
}

/// The review site's native API.
#[derive(Debug)]
pub struct ReviewApi<'a> {
    corpus: &'a Corpus,
    source: SourceId,
    bucket: TokenBucket,
    faults: FaultPlan,
}

impl<'a> ReviewApi<'a> {
    /// Opens the API for one review source.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        match corpus.source(source) {
            Ok(s) if s.kind == SourceKind::ReviewSite => Ok(ReviewApi {
                corpus,
                source,
                bucket: TokenBucket::new(40, 900, now),
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
            return Err(WrapperError::Transient("reviews: upstream 503"));
        }
        Ok(())
    }

    /// Lists venues (page-number pagination); returns the page and
    /// the total page count.
    pub fn venues(
        &mut self,
        now: Timestamp,
        page: usize,
    ) -> Result<(Vec<VenueRecord>, usize), WrapperError> {
        self.meter(now)?;
        let all = self.corpus.discussions_of_source(self.source);
        let total_pages = all.len().div_ceil(VENUES_PAGE_SIZE).max(1);
        if page >= total_pages {
            return Err(WrapperError::BadCursor(format!("venue page {page}")));
        }
        let slice = &all
            [page * VENUES_PAGE_SIZE..(page * VENUES_PAGE_SIZE + VENUES_PAGE_SIZE).min(all.len())];
        let venues = slice
            .iter()
            .map(|&d| {
                let disc = self.corpus.discussion(d)?;
                Ok(VenueRecord {
                    venue_code: format!("V-{}", d.raw()),
                    name: disc.title.clone(),
                    category: self
                        .corpus
                        .categories()
                        .name(disc.category)
                        .unwrap_or("misc")
                        .to_owned(),
                    review_count: self.corpus.comments_of_discussion(d).len() as u32,
                })
            })
            .collect::<Result<_, WrapperError>>()?;
        Ok((venues, total_pages))
    }

    /// Lists one page of a venue's reviews; returns the page and the
    /// total page count.
    pub fn reviews(
        &mut self,
        now: Timestamp,
        venue_code: &str,
        page: usize,
    ) -> Result<(Vec<ReviewRecord>, usize), WrapperError> {
        self.meter(now)?;
        let discussion = discussion_of_venue_code(venue_code)?;
        let d = self
            .corpus
            .discussion(discussion)
            .map_err(|_| WrapperError::BadCursor(venue_code.to_owned()))?;
        if d.source != self.source {
            return Err(WrapperError::BadCursor(format!(
                "{venue_code} (foreign venue)"
            )));
        }
        let comments = self.corpus.comments_of_discussion(discussion);
        let total_pages = comments.len().div_ceil(REVIEWS_PAGE_SIZE).max(1);
        if page >= total_pages {
            return Err(WrapperError::BadCursor(format!("review page {page}")));
        }
        let slice = &comments[page * REVIEWS_PAGE_SIZE
            ..(page * REVIEWS_PAGE_SIZE + REVIEWS_PAGE_SIZE).min(comments.len())];
        let reviews = slice
            .iter()
            .map(|&cid| {
                let c = self.corpus.comment(cid)?;
                let reviewer = self.corpus.user(c.author)?;
                let counts = InteractionCounts::tally(self.corpus, ContentRef::Comment(cid));
                Ok(ReviewRecord {
                    reviewer: reviewer.handle.clone(),
                    // The platform's own star widget; deterministic
                    // synthetic rating (not used by the wrapper).
                    stars: (1 + (cid.raw() * 7 + 3) % 5) as u8,
                    text: c.body.clone(),
                    visited_day: c.published.days() as u32,
                    helpful_votes: counts.feedbacks,
                })
            })
            .collect::<Result<_, WrapperError>>()?;
        Ok((reviews, total_pages))
    }
}

/// Maps a venue code back to a discussion id.
pub fn discussion_of_venue_code(code: &str) -> Result<DiscussionId, WrapperError> {
    code.strip_prefix("V-")
        .and_then(|n| n.parse::<u32>().ok())
        .map(DiscussionId::new)
        .ok_or_else(|| WrapperError::MappingFailed {
            what: "venue code",
            raw: code.to_owned(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder, InteractionKind};

    fn review_corpus() -> (Corpus, SourceId) {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("restaurants").unwrap();
        let r = b.add_source(SourceKind::ReviewSite, "tastemap", Timestamp::EPOCH);
        let u = b.add_user("critic", AccountKind::Person, Timestamp::EPOCH);
        let v = b.add_user("foodie", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..12u64 {
            let d = b
                .add_discussion(r, cat, format!("osteria {i}"), u, Timestamp::from_days(i))
                .unwrap();
            for j in 0..3u64 {
                let c = b
                    .add_comment(
                        d,
                        v,
                        format!("review {i}-{j}"),
                        Timestamp::from_days(i + j + 1),
                    )
                    .unwrap();
                if j == 0 {
                    b.add_interaction(
                        u,
                        ContentRef::Comment(c),
                        InteractionKind::Feedback,
                        Timestamp::from_days(i + 5),
                    )
                    .unwrap();
                }
            }
        }
        (b.build(), r)
    }

    #[test]
    fn venue_listing_paginates() {
        let (corpus, r) = review_corpus();
        let now = Timestamp::from_days(60);
        let mut api = ReviewApi::open(&corpus, r, now).unwrap();
        let (page0, total) = api.venues(now, 0).unwrap();
        assert_eq!(total, 2);
        assert_eq!(page0.len(), 10);
        assert_eq!(page0[0].venue_code, "V-0");
        assert_eq!(page0[0].review_count, 3);
        assert_eq!(page0[0].category, "restaurants");
        let (page1, _) = api.venues(now, 1).unwrap();
        assert_eq!(page1.len(), 2);
    }

    #[test]
    fn reviews_expose_helpful_votes_and_days() {
        let (corpus, r) = review_corpus();
        let now = Timestamp::from_days(60);
        let mut api = ReviewApi::open(&corpus, r, now).unwrap();
        let (reviews, pages) = api.reviews(now, "V-0", 0).unwrap();
        assert_eq!(pages, 1);
        assert_eq!(reviews.len(), 3);
        assert_eq!(reviews[0].helpful_votes, 1);
        assert_eq!(reviews[1].helpful_votes, 0);
        assert_eq!(reviews[0].visited_day, 1);
        assert!((1..=5).contains(&reviews[0].stars));
    }

    #[test]
    fn bad_venue_codes_are_rejected() {
        let (corpus, r) = review_corpus();
        let now = Timestamp::from_days(60);
        let mut api = ReviewApi::open(&corpus, r, now).unwrap();
        assert!(api.reviews(now, "V-999", 0).is_err());
        assert!(api.reviews(now, "X-1", 0).is_err());
        assert!(matches!(
            discussion_of_venue_code("nope"),
            Err(WrapperError::MappingFailed { .. })
        ));
    }

    #[test]
    fn non_review_source_is_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_category("c").unwrap();
        let wiki = b.add_source(SourceKind::Wiki, "w", Timestamp::EPOCH);
        let corpus = b.build();
        assert!(ReviewApi::open(&corpus, wiki, Timestamp::EPOCH).is_err());
    }
}
