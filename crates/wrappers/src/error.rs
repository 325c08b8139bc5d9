//! Wrapper-layer errors.

use crate::rate::RateDenied;
use obs_model::{ModelError, SourceId};

/// Errors surfaced by native APIs and wrappers.
#[derive(Debug, Clone, PartialEq)]
pub enum WrapperError {
    /// The caller exceeded the API's rate limit; retry after the
    /// given number of simulated seconds.
    RateLimited {
        /// Seconds until the bucket refills enough for one call.
        retry_after_secs: u64,
    },
    /// The API's rate budget is exhausted and never refills (a
    /// zero-rate service): no wait will help, so this is fatal for
    /// the crawl rather than a pacing hint.
    RateLimitExhausted,
    /// A transient failure (injected or simulated network flake);
    /// safe to retry.
    Transient(&'static str),
    /// The source id is not served by this API.
    UnknownSource(SourceId),
    /// The pagination cursor is malformed or stale.
    BadCursor(String),
    /// A native record could not be mapped into the uniform model.
    MappingFailed {
        /// What failed to map.
        what: &'static str,
        /// The offending raw value.
        raw: String,
    },
    /// The backing corpus contradicts itself (a post id with no
    /// record, a comment thread referencing a missing root): not
    /// retryable — the data, not the call, is broken.
    Inconsistent {
        /// What was missing or contradictory.
        what: &'static str,
        /// The offending identifier, rendered.
        raw: String,
    },
}

impl WrapperError {
    /// Whether a retry can succeed without caller-side changes.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WrapperError::RateLimited { .. } | WrapperError::Transient(_)
        )
    }
}

/// A failed corpus lookup inside a wrapper is a data-integrity
/// problem, not a call problem: the native API held an id the model
/// cannot resolve.
impl From<ModelError> for WrapperError {
    fn from(err: ModelError) -> Self {
        let what = match err {
            ModelError::UnknownSource(_) => "source id with no record",
            ModelError::UnknownUser(_) => "user id with no record",
            ModelError::UnknownDiscussion(_) => "discussion id with no record",
            ModelError::UnknownPost(_) => "post id with no record",
            ModelError::UnknownComment(_) => "comment id with no record",
            ModelError::CrossDiscussionReply { .. } => "reply crossing discussions",
            ModelError::CategoryOverflow => "category past the book's capacity",
        };
        WrapperError::Inconsistent {
            what,
            raw: err.to_string(),
        }
    }
}

impl From<RateDenied> for WrapperError {
    fn from(denied: RateDenied) -> Self {
        match denied {
            RateDenied::RetryAfter(retry_after_secs) => {
                WrapperError::RateLimited { retry_after_secs }
            }
            RateDenied::Exhausted => WrapperError::RateLimitExhausted,
        }
    }
}

impl std::fmt::Display for WrapperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WrapperError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited; retry after {retry_after_secs}s")
            }
            WrapperError::RateLimitExhausted => {
                write!(f, "rate budget exhausted; the limit never refills")
            }
            WrapperError::Transient(what) => write!(f, "transient failure: {what}"),
            WrapperError::UnknownSource(id) => write!(f, "unknown source {id}"),
            WrapperError::BadCursor(c) => write!(f, "bad cursor {c:?}"),
            WrapperError::MappingFailed { what, raw } => {
                write!(f, "failed to map {what} from {raw:?}")
            }
            WrapperError::Inconsistent { what, raw } => {
                write!(f, "corpus inconsistency: {what} ({raw:?})")
            }
        }
    }
}

impl std::error::Error for WrapperError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_classification() {
        assert!(WrapperError::RateLimited {
            retry_after_secs: 5
        }
        .is_retryable());
        assert!(WrapperError::Transient("flake").is_retryable());
        assert!(!WrapperError::RateLimitExhausted.is_retryable());
        assert!(!WrapperError::UnknownSource(SourceId::new(1)).is_retryable());
        assert!(!WrapperError::BadCursor("x".into()).is_retryable());
        assert!(!WrapperError::MappingFailed {
            what: "date",
            raw: "??".into()
        }
        .is_retryable());
        assert!(!WrapperError::Inconsistent {
            what: "post id with no record",
            raw: "p42".into()
        }
        .is_retryable());
    }

    #[test]
    fn rate_denials_map_to_the_right_errors() {
        assert_eq!(
            WrapperError::from(RateDenied::RetryAfter(7)),
            WrapperError::RateLimited {
                retry_after_secs: 7
            }
        );
        assert_eq!(
            WrapperError::from(RateDenied::Exhausted),
            WrapperError::RateLimitExhausted
        );
    }

    #[test]
    fn display_is_informative() {
        let e = WrapperError::MappingFailed {
            what: "date",
            raw: "not-a-date".into(),
        };
        assert!(e.to_string().contains("date"));
        assert!(e.to_string().contains("not-a-date"));
    }
}
