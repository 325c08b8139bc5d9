//! The wiki dialect: slugged articles with revision histories,
//! day-ordinal dates, offset/limit pagination over articles.

use crate::error::WrapperError;
use crate::fault::FaultPlan;
use crate::rate::TokenBucket;
use obs_model::{Corpus, DiscussionId, SourceId, SourceKind, Timestamp};

/// One revision of an article.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionRecord {
    /// Editor username.
    pub editor: String,
    /// Edit day (simulation day ordinal).
    pub edited_day: u32,
    /// Edit summary.
    pub note: String,
}

/// A wiki article (maps to a discussion; revisions map to comments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArticleRecord {
    /// URL slug, e.g. `"duomo-tips--17"` (embeds the discussion id).
    pub slug: String,
    /// Article heading.
    pub heading: String,
    /// Current wikitext.
    pub wikitext: String,
    /// Original curator (the opener).
    pub curator: String,
    /// Creation day.
    pub created_day: u32,
    /// Whether the article is protected (closed).
    pub protected: bool,
    /// Revision history, oldest first.
    pub revisions: Vec<RevisionRecord>,
}

/// The wiki's native API.
#[derive(Debug)]
pub struct WikiApi<'a> {
    corpus: &'a Corpus,
    source: SourceId,
    bucket: TokenBucket,
    faults: FaultPlan,
}

impl<'a> WikiApi<'a> {
    /// Opens the API for one wiki source.
    pub fn open(
        corpus: &'a Corpus,
        source: SourceId,
        now: Timestamp,
    ) -> Result<Self, WrapperError> {
        match corpus.source(source) {
            Ok(s) if s.kind == SourceKind::Wiki => Ok(WikiApi {
                corpus,
                source,
                bucket: TokenBucket::new(50, 1_000, now),
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

    /// Lists articles with offset/limit; also returns the total.
    pub fn articles(
        &mut self,
        now: Timestamp,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<ArticleRecord>, usize), WrapperError> {
        self.bucket.try_take(now).map_err(WrapperError::from)?;
        if self.faults.should_fail() {
            return Err(WrapperError::Transient("wiki: replication lag"));
        }
        let all = self.corpus.discussions_of_source(self.source);
        let total = all.len();
        if offset > total {
            return Err(WrapperError::BadCursor(format!("offset {offset}")));
        }
        let slice = &all[offset..(offset + limit).min(total)];
        let articles = slice
            .iter()
            .map(|&d| self.render(d))
            .collect::<Result<_, _>>()?;
        Ok((articles, total))
    }

    fn render(&self, id: DiscussionId) -> Result<ArticleRecord, WrapperError> {
        let d = self.corpus.discussion(id)?;
        let post = self.corpus.post(d.root_post)?;
        let curator = self.corpus.user(d.opened_by)?;
        let revisions = self
            .corpus
            .comments_of_discussion(id)
            .iter()
            .map(|&cid| {
                let c = self.corpus.comment(cid)?;
                let editor = self.corpus.user(c.author)?;
                Ok(RevisionRecord {
                    editor: editor.handle.clone(),
                    edited_day: c.published.days() as u32,
                    note: c.body.clone(),
                })
            })
            .collect::<Result<_, WrapperError>>()?;
        Ok(ArticleRecord {
            slug: slug_for(&d.title, id),
            heading: d.title.clone(),
            wikitext: format!("== {} ==\n{}", d.title, post.body),
            curator: curator.handle.clone(),
            created_day: d.opened_at.days() as u32,
            protected: d.closed,
            revisions,
        })
    }
}

/// Builds the slug for an article title + id.
pub fn slug_for(title: &str, id: DiscussionId) -> String {
    let base: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!("{}--{}", base.trim_matches('-'), id.raw())
}

/// Extracts the discussion id from an article slug.
pub fn discussion_of_slug(slug: &str) -> Result<DiscussionId, WrapperError> {
    slug.rsplit_once("--")
        .and_then(|(_, n)| n.parse::<u32>().ok())
        .map(DiscussionId::new)
        .ok_or_else(|| WrapperError::MappingFailed {
            what: "wiki slug",
            raw: slug.to_owned(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_model::{AccountKind, CorpusBuilder};

    fn wiki_corpus() -> (Corpus, SourceId) {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("museums").unwrap();
        let w = b.add_source(SourceKind::Wiki, "milanopedia", Timestamp::EPOCH);
        let u = b.add_user("curator", AccountKind::Person, Timestamp::EPOCH);
        let e = b.add_user("editor", AccountKind::Person, Timestamp::EPOCH);
        for i in 0..4u64 {
            let (d, _) = b
                .add_discussion_with_post(
                    w,
                    cat,
                    format!("Museum Guide {i}"),
                    u,
                    Timestamp::from_days(i),
                    format!("article body {i}"),
                    vec![],
                    None,
                )
                .unwrap();
            b.add_comment(
                d,
                e,
                format!("fixed typos {i}"),
                Timestamp::from_days(i + 1),
            )
            .unwrap();
        }
        (b.build(), w)
    }

    #[test]
    fn articles_render_with_revisions() {
        let (corpus, w) = wiki_corpus();
        let now = Timestamp::from_days(30);
        let mut api = WikiApi::open(&corpus, w, now).unwrap();
        let (articles, total) = api.articles(now, 0, 10).unwrap();
        assert_eq!(total, 4);
        assert_eq!(articles.len(), 4);
        let a = &articles[0];
        assert_eq!(a.heading, "Museum Guide 0");
        assert!(a.wikitext.starts_with("== "));
        assert_eq!(a.revisions.len(), 1);
        assert_eq!(a.revisions[0].editor, "editor");
        assert!(!a.protected);
    }

    #[test]
    fn slug_roundtrip() {
        let id = DiscussionId::new(17);
        let slug = slug_for("Duomo Tips!", id);
        assert_eq!(slug, "duomo-tips---17".replace("---", "--").as_str());
        assert_eq!(discussion_of_slug(&slug).unwrap(), id);
        assert!(discussion_of_slug("no-id-here").is_err());
    }

    #[test]
    fn offset_limit_pagination() {
        let (corpus, w) = wiki_corpus();
        let now = Timestamp::from_days(30);
        let mut api = WikiApi::open(&corpus, w, now).unwrap();
        let (first, _) = api.articles(now, 0, 2).unwrap();
        let (second, _) = api.articles(now, 2, 2).unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        assert_ne!(first[0].slug, second[0].slug);
        assert!(api.articles(now, 99, 2).is_err());
    }

    #[test]
    fn non_wiki_is_rejected() {
        let mut b = CorpusBuilder::new();
        b.add_category("c").unwrap();
        let blog = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let corpus = b.build();
        assert!(WikiApi::open(&corpus, blog, Timestamp::EPOCH).is_err());
    }
}
