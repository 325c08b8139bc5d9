//! The corpus: an immutable arena of sources, users, contents and
//! interactions with pre-computed secondary indexes.
//!
//! A [`Corpus`] is the "crawled Web" of the reproduction. Generators
//! (and tests) populate a [`CorpusBuilder`]; `build()` freezes the
//! arena and derives every adjacency the quality measures need:
//! discussions per source, comments per discussion/user, interactions
//! per actor/target, reply fan-in, per-discussion last activity, and
//! authored content per user.

use crate::{
    AccountKind, CategoryBook, CategoryId, Comment, CommentId, ContentRef, Discussion,
    DiscussionId, GeoPoint, Interaction, InteractionId, InteractionKind, ModelError, Post, PostId,
    Source, SourceId, SourceKind, Tag, Timestamp, UserId, UserProfile,
};
use serde::{Deserialize, Serialize};

/// Immutable world of Web 2.0 entities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    categories: CategoryBook,
    sources: Vec<Source>,
    users: Vec<UserProfile>,
    discussions: Vec<Discussion>,
    posts: Vec<Post>,
    comments: Vec<Comment>,
    interactions: Vec<Interaction>,

    // Secondary indexes, all addressed by the raw id of their key.
    discussions_by_source: Vec<Vec<DiscussionId>>,
    comments_by_discussion: Vec<Vec<CommentId>>,
    comments_by_author: Vec<Vec<CommentId>>,
    posts_by_author: Vec<Vec<PostId>>,
    discussions_opened_by: Vec<Vec<DiscussionId>>,
    interactions_by_actor: Vec<Vec<InteractionId>>,
    interactions_on_post: Vec<Vec<InteractionId>>,
    interactions_on_comment: Vec<Vec<InteractionId>>,
    replies_to_comment: Vec<Vec<CommentId>>,
    last_activity: Vec<Timestamp>,
}

impl Corpus {
    // ---- flat access -------------------------------------------------

    /// The category interning table.
    pub fn categories(&self) -> &CategoryBook {
        &self.categories
    }

    /// All sources, in id order.
    pub fn sources(&self) -> &[Source] {
        &self.sources
    }

    /// All users, in id order.
    pub fn users(&self) -> &[UserProfile] {
        &self.users
    }

    /// All discussions, in id order.
    pub fn discussions(&self) -> &[Discussion] {
        &self.discussions
    }

    /// All posts, in id order.
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// All comments, in id order.
    pub fn comments(&self) -> &[Comment] {
        &self.comments
    }

    /// All interactions, in id order.
    pub fn interactions(&self) -> &[Interaction] {
        &self.interactions
    }

    // ---- fallible lookups --------------------------------------------

    /// Source by id.
    pub fn source(&self, id: SourceId) -> Result<&Source, ModelError> {
        self.sources
            .get(id.index())
            .ok_or(ModelError::UnknownSource(id))
    }

    /// User by id.
    pub fn user(&self, id: UserId) -> Result<&UserProfile, ModelError> {
        self.users
            .get(id.index())
            .ok_or(ModelError::UnknownUser(id))
    }

    /// Discussion by id.
    pub fn discussion(&self, id: DiscussionId) -> Result<&Discussion, ModelError> {
        self.discussions
            .get(id.index())
            .ok_or(ModelError::UnknownDiscussion(id))
    }

    /// Post by id.
    pub fn post(&self, id: PostId) -> Result<&Post, ModelError> {
        self.posts
            .get(id.index())
            .ok_or(ModelError::UnknownPost(id))
    }

    /// Comment by id.
    pub fn comment(&self, id: CommentId) -> Result<&Comment, ModelError> {
        self.comments
            .get(id.index())
            .ok_or(ModelError::UnknownComment(id))
    }

    // ---- adjacency ----------------------------------------------------

    /// Discussions hosted by a source (empty for unknown ids).
    pub fn discussions_of_source(&self, id: SourceId) -> &[DiscussionId] {
        self.discussions_by_source
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Comments of a discussion, in publication order.
    pub fn comments_of_discussion(&self, id: DiscussionId) -> &[CommentId] {
        self.comments_by_discussion
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Comments authored by a user.
    pub fn comments_of_user(&self, id: UserId) -> &[CommentId] {
        self.comments_by_author
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Opening posts authored by a user.
    pub fn posts_of_user(&self, id: UserId) -> &[PostId] {
        self.posts_by_author
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Discussions opened by a user.
    pub fn discussions_opened_by(&self, id: UserId) -> &[DiscussionId] {
        self.discussions_opened_by
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Interactions performed by a user.
    pub fn interactions_of_actor(&self, id: UserId) -> &[InteractionId] {
        self.interactions_by_actor
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Interactions targeting a piece of content.
    pub fn interactions_on(&self, target: ContentRef) -> &[InteractionId] {
        match target {
            ContentRef::Post(p) => self
                .interactions_on_post
                .get(p.index())
                .map_or(&[], Vec::as_slice),
            ContentRef::Comment(c) => self
                .interactions_on_comment
                .get(c.index())
                .map_or(&[], Vec::as_slice),
        }
    }

    /// Direct replies to a comment.
    pub fn replies_to(&self, id: CommentId) -> &[CommentId] {
        self.replies_to_comment
            .get(id.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Instant of the last activity (open, comment or interaction)
    /// observed in a discussion.
    pub fn last_activity(&self, id: DiscussionId) -> Timestamp {
        self.last_activity
            .get(id.index())
            .copied()
            .unwrap_or(Timestamp::EPOCH)
    }

    /// Author of a piece of content.
    pub fn author_of(&self, target: ContentRef) -> Result<UserId, ModelError> {
        match target {
            ContentRef::Post(p) => self.post(p).map(|p| p.author),
            ContentRef::Comment(c) => self.comment(c).map(|c| c.author),
        }
    }

    /// Discussion a piece of content belongs to.
    pub fn discussion_of(&self, target: ContentRef) -> Result<DiscussionId, ModelError> {
        match target {
            ContentRef::Post(p) => self.post(p).map(|p| p.discussion),
            ContentRef::Comment(c) => self.comment(c).map(|c| c.discussion),
        }
    }

    /// Source hosting a piece of content.
    pub fn source_of(&self, target: ContentRef) -> Result<SourceId, ModelError> {
        let d = self.discussion_of(target)?;
        self.discussion(d).map(|d| d.source)
    }

    /// Interactions *received* by a user: interactions whose target
    /// was authored by the user. Allocates the id list.
    pub fn interactions_received_by(&self, user: UserId) -> Vec<InteractionId> {
        let mut out = Vec::new();
        for &p in self.posts_of_user(user) {
            out.extend_from_slice(self.interactions_on(ContentRef::Post(p)));
        }
        for &c in self.comments_of_user(user) {
            out.extend_from_slice(self.interactions_on(ContentRef::Comment(c)));
        }
        out.sort_unstable();
        out
    }

    /// Counts interactions received by `user`, restricted to `kind`.
    pub fn received_count_of_kind(&self, user: UserId, kind: InteractionKind) -> usize {
        self.interactions_received_by(user)
            .iter()
            .filter(|&&i| self.interactions[i.index()].kind == kind)
            .count()
    }

    // ---- persistence ----------------------------------------------------

    /// Serializes the corpus (including its secondary indexes) to
    /// JSON. Worlds are bit-reproducible from seeds, but persisting a
    /// crawled corpus lets downstream tools share snapshots without
    /// re-running generation.
    pub fn to_json(&self) -> String {
        #[expect(
            clippy::expect_used,
            reason = "plain structs with string keys only; serde_json cannot fail here"
        )]
        serde_json::to_string(self).expect("corpus is always serializable")
    }

    /// Restores a corpus from its JSON snapshot.
    pub fn from_json(json: &str) -> Result<Corpus, serde_json::Error> {
        serde_json::from_str(json)
    }

    // ---- summary -------------------------------------------------------

    /// Entity counts, handy for logs and sanity checks.
    pub fn stats(&self) -> CorpusStats {
        let mut sources_by_kind = [0usize; SourceKind::ALL.len()];
        for s in &self.sources {
            #[expect(
                clippy::unwrap_used,
                reason = "SourceKind::ALL lists every variant by construction"
            )]
            let pos = SourceKind::ALL.iter().position(|k| *k == s.kind).unwrap();
            sources_by_kind[pos] += 1;
        }
        CorpusStats {
            sources: self.sources.len(),
            users: self.users.len(),
            discussions: self.discussions.len(),
            posts: self.posts.len(),
            comments: self.comments.len(),
            interactions: self.interactions.len(),
            categories: self.categories.len(),
            sources_by_kind,
        }
    }
}

/// Entity counts for a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of sources.
    pub sources: usize,
    /// Number of user accounts.
    pub users: usize,
    /// Number of discussions.
    pub discussions: usize,
    /// Number of opening posts.
    pub posts: usize,
    /// Number of comments.
    pub comments: usize,
    /// Number of interactions.
    pub interactions: usize,
    /// Number of content categories.
    pub categories: usize,
    /// Sources per kind, in [`SourceKind::ALL`] order.
    pub sources_by_kind: [usize; SourceKind::ALL.len()],
}

impl std::fmt::Display for CorpusStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sources, {} users, {} discussions, {} comments, {} interactions, {} categories",
            self.sources,
            self.users,
            self.discussions,
            self.comments,
            self.interactions,
            self.categories
        )
    }
}

/// Mutable accumulator for building a [`Corpus`].
///
/// Entity-creating methods hand back dense ids. Methods that take
/// foreign ids panic when handed an id this builder never produced;
/// generators own both sides, so a bad id is a programming error, not
/// an input error.
#[derive(Debug, Default, Clone)]
pub struct CorpusBuilder {
    categories: CategoryBook,
    sources: Vec<Source>,
    users: Vec<UserProfile>,
    discussions: Vec<Discussion>,
    posts: Vec<Post>,
    comments: Vec<Comment>,
    interactions: Vec<Interaction>,
}

impl CorpusBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a content category; fails with
    /// [`ModelError::CategoryOverflow`] once the book is full.
    pub fn add_category(&mut self, name: impl AsRef<str>) -> Result<CategoryId, ModelError> {
        self.categories.intern(name)
    }

    /// Registers a source.
    pub fn add_source(
        &mut self,
        kind: SourceKind,
        name: impl Into<String>,
        founded: Timestamp,
    ) -> SourceId {
        let name = name.into();
        let id = SourceId::new(self.sources.len() as u32);
        let url = Source::url_for(kind, &name);
        self.sources.push(Source {
            id,
            kind,
            name,
            url,
            founded,
            home: None,
        });
        id
    }

    /// Sets a source's home location. Fails with
    /// [`ModelError::UnknownSource`] for an id this builder never
    /// issued.
    pub fn set_source_home(&mut self, id: SourceId, home: GeoPoint) -> Result<(), ModelError> {
        self.source_mut(id)?.home = Some(home);
        Ok(())
    }

    /// Registers a user account.
    pub fn add_user(
        &mut self,
        handle: impl Into<String>,
        kind: AccountKind,
        registered: Timestamp,
    ) -> UserId {
        let id = UserId::new(self.users.len() as u32);
        self.users.push(UserProfile {
            id,
            handle: handle.into(),
            kind,
            registered,
            home: None,
            followers: 0,
        });
        id
    }

    /// Sets a user's home location.
    pub fn set_user_home(&mut self, id: UserId, home: GeoPoint) -> Result<(), ModelError> {
        self.user_mut(id)?.home = Some(home);
        Ok(())
    }

    /// Sets a user's declared follower count. Fails with
    /// [`ModelError::UnknownUser`] for an id this builder never
    /// issued.
    pub fn set_followers(&mut self, id: UserId, followers: u32) -> Result<(), ModelError> {
        self.user_mut(id)?.followers = followers;
        Ok(())
    }

    fn user_mut(&mut self, id: UserId) -> Result<&mut UserProfile, ModelError> {
        self.users
            .get_mut(id.index())
            .ok_or(ModelError::UnknownUser(id))
    }

    fn source_mut(&mut self, id: SourceId) -> Result<&mut Source, ModelError> {
        self.sources
            .get_mut(id.index())
            .ok_or(ModelError::UnknownSource(id))
    }

    fn source(&self, id: SourceId) -> Result<&Source, ModelError> {
        self.sources
            .get(id.index())
            .ok_or(ModelError::UnknownSource(id))
    }

    /// Opens a discussion whose root post body is the title, untagged.
    /// Fails as [`CorpusBuilder::add_discussion_with_post`] does.
    pub fn add_discussion(
        &mut self,
        source: SourceId,
        category: CategoryId,
        title: impl Into<String>,
        opened_by: UserId,
        at: Timestamp,
    ) -> Result<DiscussionId, ModelError> {
        let title = title.into();
        let body = title.clone();
        self.add_discussion_with_post(
            source,
            category,
            title,
            opened_by,
            at,
            body,
            Vec::new(),
            None,
        )
        .map(|(discussion, _)| discussion)
    }

    /// Opens a discussion with an explicit root post. Fails with
    /// [`ModelError::UnknownSource`] or [`ModelError::UnknownUser`]
    /// for an id this builder never issued.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per field of the root post"
    )]
    pub fn add_discussion_with_post(
        &mut self,
        source: SourceId,
        category: CategoryId,
        title: impl Into<String>,
        opened_by: UserId,
        at: Timestamp,
        body: impl Into<String>,
        tags: Vec<Tag>,
        geo: Option<GeoPoint>,
    ) -> Result<(DiscussionId, PostId), ModelError> {
        if source.index() >= self.sources.len() {
            return Err(ModelError::UnknownSource(source));
        }
        if opened_by.index() >= self.users.len() {
            return Err(ModelError::UnknownUser(opened_by));
        }
        let did = DiscussionId::new(self.discussions.len() as u32);
        let pid = PostId::new(self.posts.len() as u32);
        self.posts.push(Post {
            id: pid,
            discussion: did,
            author: opened_by,
            published: at,
            body: body.into(),
            tags,
            geo,
        });
        self.discussions.push(Discussion {
            id: did,
            source,
            category,
            title: title.into(),
            opened_by,
            opened_at: at,
            closed: false,
            root_post: pid,
        });
        Ok((did, pid))
    }

    /// Marks a discussion closed. Fails with
    /// [`ModelError::UnknownDiscussion`] for an id this builder never
    /// issued.
    pub fn close_discussion(&mut self, id: DiscussionId) -> Result<(), ModelError> {
        self.discussions
            .get_mut(id.index())
            .ok_or(ModelError::UnknownDiscussion(id))?
            .closed = true;
        Ok(())
    }

    /// Adds a comment replying to the opening post. Fails with
    /// [`ModelError::UnknownDiscussion`] or [`ModelError::UnknownUser`]
    /// for an id this builder never issued.
    pub fn add_comment(
        &mut self,
        discussion: DiscussionId,
        author: UserId,
        body: impl Into<String>,
        at: Timestamp,
    ) -> Result<CommentId, ModelError> {
        self.add_comment_inner(discussion, author, body.into(), at, None, None)
    }

    /// Adds a comment with an optional geo-tag. Fails as
    /// [`CorpusBuilder::add_comment`] does.
    pub fn add_comment_geo(
        &mut self,
        discussion: DiscussionId,
        author: UserId,
        body: impl Into<String>,
        at: Timestamp,
        geo: Option<GeoPoint>,
    ) -> Result<CommentId, ModelError> {
        self.add_comment_inner(discussion, author, body.into(), at, None, geo)
    }

    /// Adds a reply to an existing comment. Fails as
    /// [`CorpusBuilder::add_comment`] does, and when the parent is
    /// unknown or belongs to a different discussion.
    pub fn add_reply(
        &mut self,
        discussion: DiscussionId,
        author: UserId,
        body: impl Into<String>,
        at: Timestamp,
        reply_to: CommentId,
    ) -> Result<CommentId, ModelError> {
        self.add_comment_inner(discussion, author, body.into(), at, Some(reply_to), None)
    }

    fn add_comment_inner(
        &mut self,
        discussion: DiscussionId,
        author: UserId,
        body: String,
        at: Timestamp,
        reply_to: Option<CommentId>,
        geo: Option<GeoPoint>,
    ) -> Result<CommentId, ModelError> {
        if discussion.index() >= self.discussions.len() {
            return Err(ModelError::UnknownDiscussion(discussion));
        }
        if author.index() >= self.users.len() {
            return Err(ModelError::UnknownUser(author));
        }
        let id = CommentId::new(self.comments.len() as u32);
        if let Some(parent) = reply_to {
            let parent_comment = self
                .comments
                .get(parent.index())
                .ok_or(ModelError::UnknownComment(parent))?;
            if parent_comment.discussion != discussion {
                return Err(ModelError::CrossDiscussionReply {
                    comment: id,
                    claimed_parent: parent,
                });
            }
        }
        self.comments.push(Comment {
            id,
            discussion,
            author,
            published: at,
            body,
            reply_to,
            geo,
        });
        Ok(id)
    }

    /// Records a social interaction. Fails with
    /// [`ModelError::UnknownUser`], [`ModelError::UnknownPost`] or
    /// [`ModelError::UnknownComment`] for an id this builder never
    /// issued.
    pub fn add_interaction(
        &mut self,
        actor: UserId,
        target: ContentRef,
        kind: InteractionKind,
        at: Timestamp,
    ) -> Result<InteractionId, ModelError> {
        if actor.index() >= self.users.len() {
            return Err(ModelError::UnknownUser(actor));
        }
        match target {
            ContentRef::Post(p) if p.index() >= self.posts.len() => {
                return Err(ModelError::UnknownPost(p))
            }
            ContentRef::Comment(c) if c.index() >= self.comments.len() => {
                return Err(ModelError::UnknownComment(c))
            }
            _ => {}
        }
        let id = InteractionId::new(self.interactions.len() as u32);
        self.interactions.push(Interaction {
            id,
            actor,
            target,
            kind,
            at,
        });
        Ok(id)
    }

    /// Number of sources registered so far.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Founding time of an already-registered source. Fails with
    /// [`ModelError::UnknownSource`] for an id this builder never
    /// issued.
    pub fn source_founded(&self, id: SourceId) -> Result<Timestamp, ModelError> {
        Ok(self.source(id)?.founded)
    }

    /// Kind of an already-registered source. Fails as
    /// [`CorpusBuilder::source_founded`] does.
    pub fn source_kind(&self, id: SourceId) -> Result<SourceKind, ModelError> {
        Ok(self.source(id)?.kind)
    }

    /// Number of users registered so far.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Freezes the builder into an indexed corpus.
    pub fn build(self) -> Corpus {
        let CorpusBuilder {
            categories,
            sources,
            users,
            discussions,
            posts,
            comments,
            interactions,
        } = self;

        let mut discussions_by_source = vec![Vec::new(); sources.len()];
        let mut discussions_opened_by = vec![Vec::new(); users.len()];
        let mut last_activity = vec![Timestamp::EPOCH; discussions.len()];
        for d in &discussions {
            discussions_by_source[d.source.index()].push(d.id);
            discussions_opened_by[d.opened_by.index()].push(d.id);
            last_activity[d.id.index()] = d.opened_at;
        }

        let mut posts_by_author = vec![Vec::new(); users.len()];
        for p in &posts {
            posts_by_author[p.author.index()].push(p.id);
        }

        let mut comments_by_discussion = vec![Vec::new(); discussions.len()];
        let mut comments_by_author = vec![Vec::new(); users.len()];
        let mut replies_to_comment = vec![Vec::new(); comments.len()];
        for c in &comments {
            comments_by_discussion[c.discussion.index()].push(c.id);
            comments_by_author[c.author.index()].push(c.id);
            if let Some(parent) = c.reply_to {
                replies_to_comment[parent.index()].push(c.id);
            }
            let slot = &mut last_activity[c.discussion.index()];
            if c.published > *slot {
                *slot = c.published;
            }
        }

        let mut interactions_by_actor = vec![Vec::new(); users.len()];
        let mut interactions_on_post = vec![Vec::new(); posts.len()];
        let mut interactions_on_comment = vec![Vec::new(); comments.len()];
        for i in &interactions {
            interactions_by_actor[i.actor.index()].push(i.id);
            let discussion = match i.target {
                ContentRef::Post(p) => {
                    interactions_on_post[p.index()].push(i.id);
                    posts[p.index()].discussion
                }
                ContentRef::Comment(c) => {
                    interactions_on_comment[c.index()].push(i.id);
                    comments[c.index()].discussion
                }
            };
            let slot = &mut last_activity[discussion.index()];
            if i.at > *slot {
                *slot = i.at;
            }
        }

        Corpus {
            categories,
            sources,
            users,
            discussions,
            posts,
            comments,
            interactions,
            discussions_by_source,
            comments_by_discussion,
            comments_by_author,
            posts_by_author,
            discussions_opened_by,
            interactions_by_actor,
            interactions_on_post,
            interactions_on_comment,
            replies_to_comment,
            last_activity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> Corpus {
        let mut b = CorpusBuilder::new();
        let tourism = b.add_category("tourism").unwrap();
        let food = b.add_category("food").unwrap();
        let blog = b.add_source(SourceKind::Blog, "milan-diaries", Timestamp::from_days(0));
        let forum = b.add_source(SourceKind::Forum, "ask-milano", Timestamp::from_days(2));
        let ada = b.add_user("ada", AccountKind::Person, Timestamp::from_days(0));
        let bbc = b.add_user("bbc", AccountKind::News, Timestamp::from_days(0));
        let d1 = b
            .add_discussion(blog, tourism, "duomo tips", ada, Timestamp::from_days(3))
            .unwrap();
        let d2 = b
            .add_discussion(forum, food, "best risotto", bbc, Timestamp::from_days(4))
            .unwrap();
        let c1 = b
            .add_comment(d1, bbc, "go early", Timestamp::from_days(5))
            .unwrap();
        let _r1 = b
            .add_reply(d1, ada, "thanks!", Timestamp::from_days(6), c1)
            .unwrap();
        let c2 = b
            .add_comment(d2, ada, "try da Vittorio", Timestamp::from_days(7))
            .unwrap();
        let root1 = b.discussions[d1.index()].root_post;
        b.add_interaction(
            bbc,
            ContentRef::Post(root1),
            InteractionKind::Like,
            Timestamp::from_days(8),
        )
        .unwrap();
        b.add_interaction(
            ada,
            ContentRef::Comment(c2),
            InteractionKind::Feedback,
            Timestamp::from_days(9),
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn stats_count_everything() {
        let c = small_world();
        let s = c.stats();
        assert_eq!(s.sources, 2);
        assert_eq!(s.users, 2);
        assert_eq!(s.discussions, 2);
        assert_eq!(s.posts, 2);
        assert_eq!(s.comments, 3);
        assert_eq!(s.interactions, 2);
        assert_eq!(s.categories, 2);
        assert_eq!(s.sources_by_kind[0], 1); // blog
        assert_eq!(s.sources_by_kind[1], 1); // forum
    }

    #[test]
    fn adjacency_indexes_are_consistent() {
        let c = small_world();
        let blog = SourceId::new(0);
        let d1 = DiscussionId::new(0);
        assert_eq!(c.discussions_of_source(blog), &[d1]);
        assert_eq!(c.comments_of_discussion(d1).len(), 2);
        let ada = UserId::new(0);
        assert_eq!(c.discussions_opened_by(ada), &[d1]);
        assert_eq!(c.comments_of_user(ada).len(), 2);
        assert_eq!(c.posts_of_user(ada).len(), 1);
    }

    #[test]
    fn replies_index_links_parent_to_child() {
        let c = small_world();
        let c1 = CommentId::new(0);
        let replies = c.replies_to(c1);
        assert_eq!(replies.len(), 1);
        assert_eq!(c.comment(replies[0]).unwrap().reply_to, Some(c1));
    }

    #[test]
    fn last_activity_reflects_interactions() {
        let c = small_world();
        assert_eq!(
            c.last_activity(DiscussionId::new(0)),
            Timestamp::from_days(8)
        );
        assert_eq!(
            c.last_activity(DiscussionId::new(1)),
            Timestamp::from_days(9)
        );
    }

    #[test]
    fn received_interactions_follow_authorship() {
        let c = small_world();
        let ada = UserId::new(0);
        let bbc = UserId::new(1);
        // ada authored root1 (liked by bbc) and c2 (feedback by ada).
        assert_eq!(c.interactions_received_by(ada).len(), 2);
        assert_eq!(c.received_count_of_kind(ada, InteractionKind::Like), 1);
        assert_eq!(c.received_count_of_kind(ada, InteractionKind::Feedback), 1);
        assert_eq!(c.interactions_received_by(bbc).len(), 0);
    }

    #[test]
    fn cross_discussion_reply_is_rejected() {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Forum, "f", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let d1 = b
            .add_discussion(s, cat, "one", u, Timestamp::from_days(1))
            .unwrap();
        let d2 = b
            .add_discussion(s, cat, "two", u, Timestamp::from_days(1))
            .unwrap();
        let c1 = b
            .add_comment(d1, u, "hello", Timestamp::from_days(2))
            .unwrap();
        let err = b
            .add_reply(d2, u, "wrong thread", Timestamp::from_days(3), c1)
            .unwrap_err();
        assert!(matches!(err, ModelError::CrossDiscussionReply { .. }));
    }

    #[test]
    fn builder_refuses_ids_it_never_issued() {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Forum, "f", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let at = Timestamp::from_days(1);
        let (ghost_source, ghost_user) = (SourceId::new(7), UserId::new(7));
        assert_eq!(
            b.add_discussion(ghost_source, cat, "t", u, at),
            Err(ModelError::UnknownSource(ghost_source))
        );
        assert_eq!(
            b.add_discussion(s, cat, "t", ghost_user, at),
            Err(ModelError::UnknownUser(ghost_user))
        );
        let d = b.add_discussion(s, cat, "t", u, at).unwrap();

        let ghost_discussion = DiscussionId::new(7);
        assert_eq!(
            b.add_comment(ghost_discussion, u, "hi", at),
            Err(ModelError::UnknownDiscussion(ghost_discussion))
        );
        assert_eq!(
            b.add_comment_geo(d, ghost_user, "hi", at, None),
            Err(ModelError::UnknownUser(ghost_user))
        );
        let c = b.add_comment(d, u, "hi", at).unwrap();

        let (ghost_post, ghost_comment) = (PostId::new(7), CommentId::new(7));
        let like = InteractionKind::Like;
        assert_eq!(
            b.add_interaction(ghost_user, ContentRef::Comment(c), like, at),
            Err(ModelError::UnknownUser(ghost_user))
        );
        assert_eq!(
            b.add_interaction(u, ContentRef::Post(ghost_post), like, at),
            Err(ModelError::UnknownPost(ghost_post))
        );
        assert_eq!(
            b.add_interaction(u, ContentRef::Comment(ghost_comment), like, at),
            Err(ModelError::UnknownComment(ghost_comment))
        );

        // Every refusal left the builder as it was.
        let corpus = b.build();
        assert_eq!(corpus.discussions().len(), 1);
        assert_eq!(corpus.posts().len(), 1);
        assert_eq!(corpus.comments().len(), 1);
        assert!(corpus.interactions().is_empty());
    }

    #[test]
    fn unknown_lookups_return_errors() {
        let c = small_world();
        assert!(c.source(SourceId::new(99)).is_err());
        assert!(c.user(UserId::new(99)).is_err());
        assert!(c.discussion(DiscussionId::new(99)).is_err());
        assert!(c.post(PostId::new(99)).is_err());
        assert!(c.comment(CommentId::new(99)).is_err());
    }

    #[test]
    fn source_of_resolves_through_discussion() {
        let c = small_world();
        let root = c.discussion(DiscussionId::new(0)).unwrap().root_post;
        assert_eq!(
            c.source_of(ContentRef::Post(root)).unwrap(),
            SourceId::new(0)
        );
        let first_comment = c.comments_of_discussion(DiscussionId::new(0))[0];
        assert_eq!(
            c.source_of(ContentRef::Comment(first_comment)).unwrap(),
            SourceId::new(0)
        );
    }

    #[test]
    fn corpus_json_roundtrip_preserves_everything() {
        let original = small_world();
        let json = original.to_json();
        let restored = Corpus::from_json(&json).unwrap();
        assert_eq!(original.stats(), restored.stats());
        // Secondary indexes survive: adjacency answers agree.
        let d1 = DiscussionId::new(0);
        assert_eq!(
            original.comments_of_discussion(d1),
            restored.comments_of_discussion(d1)
        );
        assert_eq!(original.last_activity(d1), restored.last_activity(d1));
        let ada = UserId::new(0);
        assert_eq!(
            original.interactions_received_by(ada),
            restored.interactions_received_by(ada)
        );
        assert_eq!(
            original.categories().name(CategoryId::new(0)),
            restored.categories().name(CategoryId::new(0))
        );
    }

    #[test]
    fn corpus_from_garbage_json_errors() {
        assert!(Corpus::from_json("{\"nope\": 1}").is_err());
        assert!(Corpus::from_json("not json").is_err());
    }

    #[test]
    fn closed_flag_is_settable() {
        let mut b = CorpusBuilder::new();
        let cat = b.add_category("c").unwrap();
        let s = b.add_source(SourceKind::Blog, "b", Timestamp::EPOCH);
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let d = b
            .add_discussion(s, cat, "t", u, Timestamp::from_days(1))
            .unwrap();
        b.close_discussion(d).unwrap();
        let c = b.build();
        assert!(c.discussion(d).unwrap().closed);
    }

    #[test]
    fn setters_and_lookups_refuse_ids_the_builder_never_issued() {
        let mut b = CorpusBuilder::new();
        let s = b.add_source(SourceKind::Blog, "b", Timestamp::from_days(3));
        let u = b.add_user("u", AccountKind::Person, Timestamp::EPOCH);
        let (ghost_source, ghost_user) = (SourceId::new(1), UserId::new(1));
        let ghost_discussion = DiscussionId::new(0);
        let home = GeoPoint::new(45.46, 9.19);

        assert_eq!(
            b.set_source_home(ghost_source, home),
            Err(ModelError::UnknownSource(ghost_source))
        );
        assert_eq!(
            b.set_user_home(ghost_user, home),
            Err(ModelError::UnknownUser(ghost_user))
        );
        assert_eq!(
            b.set_followers(ghost_user, 7),
            Err(ModelError::UnknownUser(ghost_user))
        );
        assert_eq!(
            b.close_discussion(ghost_discussion),
            Err(ModelError::UnknownDiscussion(ghost_discussion))
        );
        assert_eq!(
            b.source_founded(ghost_source),
            Err(ModelError::UnknownSource(ghost_source))
        );
        assert_eq!(
            b.source_kind(ghost_source),
            Err(ModelError::UnknownSource(ghost_source))
        );

        // The issued ids still work, and the refusals changed nothing.
        b.set_source_home(s, home).unwrap();
        b.set_user_home(u, home).unwrap();
        b.set_followers(u, 7).unwrap();
        assert_eq!(b.source_founded(s), Ok(Timestamp::from_days(3)));
        assert_eq!(b.source_kind(s), Ok(SourceKind::Blog));
        let c = b.build();
        assert_eq!(c.source(s).unwrap().home, Some(home));
        assert_eq!(c.user(u).unwrap().followers, 7);
        assert_eq!(c.sources().len(), 1);
        assert_eq!(c.users().len(), 1);
    }
}
