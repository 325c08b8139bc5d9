//! Model-level errors.

use crate::{CommentId, DiscussionId, PostId, SourceId, UserId};

/// Errors raised when addressing entities that do not exist in a
/// corpus, or when building an inconsistent corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Unknown source id.
    UnknownSource(SourceId),
    /// Unknown user id.
    UnknownUser(UserId),
    /// Unknown discussion id.
    UnknownDiscussion(DiscussionId),
    /// Unknown post id.
    UnknownPost(PostId),
    /// Unknown comment id.
    UnknownComment(CommentId),
    /// A reply refers to a comment in a different discussion.
    CrossDiscussionReply {
        /// The offending comment.
        comment: CommentId,
        /// The parent it claimed.
        claimed_parent: CommentId,
    },
    /// A new category name, but the category book is full
    /// ([`CategoryBook::CAPACITY`](crate::CategoryBook::CAPACITY)).
    CategoryOverflow,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownSource(id) => write!(f, "unknown source {id}"),
            ModelError::UnknownUser(id) => write!(f, "unknown user {id}"),
            ModelError::UnknownDiscussion(id) => write!(f, "unknown discussion {id}"),
            ModelError::UnknownPost(id) => write!(f, "unknown post {id}"),
            ModelError::UnknownComment(id) => write!(f, "unknown comment {id}"),
            ModelError::CrossDiscussionReply {
                comment,
                claimed_parent,
            } => write!(
                f,
                "comment {comment} replies to {claimed_parent} from another discussion"
            ),
            ModelError::CategoryOverflow => write!(
                f,
                "category book is full ({} categories)",
                crate::CategoryBook::CAPACITY
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_ids() {
        let e = ModelError::UnknownSource(SourceId::new(5));
        assert!(e.to_string().contains("SourceId#5"));
        let e = ModelError::CrossDiscussionReply {
            comment: CommentId::new(1),
            claimed_parent: CommentId::new(2),
        };
        assert!(e.to_string().contains("CommentId#1"));
        assert!(e.to_string().contains("CommentId#2"));
    }
}
