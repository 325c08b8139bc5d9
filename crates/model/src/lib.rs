//! # obs-model — domain model for Web 2.0 sources and their contents
//!
//! This crate defines the vocabulary shared by the whole *Informing
//! Observers* reproduction: sources (blogs, forums, microblogs, review
//! sites, wikis), the users who contribute to them, the contents they
//! produce (discussions, posts, comments, tags) and the social
//! interactions those contents attract (likes, shares, retweets,
//! mentions, feedbacks, reads).
//!
//! The model mirrors the artifacts the paper's quality measures are
//! defined over (Tables 1 and 2 of the paper): every measure — "number
//! of open discussions per content category", "average number of
//! distinct tags per post", "number of received replies", … — is an
//! aggregate over the entities in this crate.
//!
//! The central container is [`Corpus`], an immutable arena of entities
//! with pre-computed secondary indexes, built through
//! [`CorpusBuilder`]. All identifiers are dense indexes into the arena,
//! which keeps lookups allocation-free and makes the whole world
//! trivially serializable and hashable.
//!
//! ```
//! use obs_model::{CorpusBuilder, SourceKind, AccountKind, Timestamp};
//!
//! let mut b = CorpusBuilder::new();
//! let cat = b.add_category("tourism")?;
//! let src = b.add_source(SourceKind::Blog, "milan-diaries", Timestamp::from_days(0));
//! let user = b.add_user("ada", AccountKind::Person, Timestamp::from_days(1));
//! let d = b.add_discussion(src, cat, "best gelato near the Duomo", user,
//!                          Timestamp::from_days(3))?;
//! b.add_comment(d, user, "try the one in Brera!", Timestamp::from_days(4))?;
//! let corpus = b.build();
//! assert_eq!(corpus.sources().len(), 1);
//! assert_eq!(corpus.comments_of_discussion(d).len(), 1);
//! # Ok::<(), obs_model::ModelError>(())
//! ```

#![warn(missing_docs)]
// Panic-freedom on the serving path (obs_live and every crate it
// links): runtime code returns errors instead of panicking, and a
// waiver is an `#[expect]` with a reason.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod codec;
mod corpus;
mod delta;
mod domain;
mod error;
mod geo;
mod ids;
mod interaction;
mod source;
mod text;
mod time;
mod user;

pub use corpus::{Corpus, CorpusBuilder, CorpusStats};
pub use delta::{document_text, CorpusDelta, DocDelta, EngagementDelta, SequencedDelta};
pub use domain::{CategoryBook, DomainOfInterest};
pub use error::ModelError;
pub use geo::{GeoPoint, Region};
pub use ids::{CategoryId, CommentId, DiscussionId, InteractionId, PostId, SourceId, UserId};
pub use interaction::{ContentRef, Interaction, InteractionKind};
pub use source::{Source, SourceKind};
pub use text::{Comment, Discussion, Post, Tag};
pub use time::{Clock, Duration, TimeRange, Timestamp, SECONDS_PER_DAY};
pub use user::{AccountKind, UserProfile};
