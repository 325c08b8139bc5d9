//! Content categories and the Domain of Interest.
//!
//! Section 3 of the paper: *"our model assumes the identification of a
//! specific Domain of Interest (DI), which can be expressed as a set
//! of variables delimiting the context of the analysis:
//! `DI = {<c1, c2, …, cn>, t, <l1, l2, …, lm>}`"* — a set of content
//! categories, a time interval and a set of geographical locations.
//! Domain-dependent quality measures are evaluated against a DI;
//! domain-independent ones ignore it.

use crate::{CategoryId, GeoPoint, ModelError, Region, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Interning table for content categories.
///
/// Categories are global to a corpus; a DI selects a subset of them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryBook {
    names: Vec<String>,
}

impl CategoryBook {
    /// The most names a book holds: ids are `u16`.
    pub const CAPACITY: usize = u16::MAX as usize;

    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a category name (case-insensitive); returns its id.
    /// Fails with [`ModelError::CategoryOverflow`] for a new name once
    /// the book holds [`CategoryBook::CAPACITY`] names.
    pub fn intern(&mut self, name: impl AsRef<str>) -> Result<CategoryId, ModelError> {
        let name = name.as_ref().trim().to_ascii_lowercase();
        if let Some(pos) = self.names.iter().position(|n| *n == name) {
            return Ok(CategoryId::new(pos as u16));
        }
        if self.names.len() >= Self::CAPACITY {
            return Err(ModelError::CategoryOverflow);
        }
        self.names.push(name);
        Ok(CategoryId::new((self.names.len() - 1) as u16))
    }

    /// Looks a category up by name without interning.
    pub fn lookup(&self, name: &str) -> Option<CategoryId> {
        let name = name.trim().to_ascii_lowercase();
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|p| CategoryId::new(p as u16))
    }

    /// Category name for an id.
    pub fn name(&self, id: CategoryId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned categories.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the book is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (CategoryId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (CategoryId::new(i as u16), n.as_str()))
    }
}

/// The paper's Domain of Interest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainOfInterest {
    /// Human-readable name of the analysis ("Milan tourism").
    pub name: String,
    /// The relevant content categories `<c1 … cn>`.
    pub categories: BTreeSet<CategoryId>,
    /// The observation time interval `t`.
    pub window: TimeRange,
    /// The geographical locations `<l1 … lm>`.
    pub locations: Vec<Region>,
}

impl DomainOfInterest {
    /// Builds a DI.
    pub fn new(
        name: impl Into<String>,
        categories: impl IntoIterator<Item = CategoryId>,
        window: TimeRange,
        locations: Vec<Region>,
    ) -> Self {
        DomainOfInterest {
            name: name.into(),
            categories: categories.into_iter().collect(),
            window,
            locations,
        }
    }

    /// A DI with no category/location constraints over the full
    /// simulation window: every measure evaluated against it reduces
    /// to its domain-independent reading.
    pub fn unconstrained(name: impl Into<String>) -> Self {
        DomainOfInterest {
            name: name.into(),
            categories: BTreeSet::new(),
            window: TimeRange::ALL,
            locations: Vec::new(),
        }
    }

    /// Whether the DI constrains categories at all.
    pub fn has_category_filter(&self) -> bool {
        !self.categories.is_empty()
    }

    /// Whether `category` is relevant: inside the selected set, or
    /// unrestricted when the set is empty.
    pub fn covers_category(&self, category: CategoryId) -> bool {
        self.categories.is_empty() || self.categories.contains(&category)
    }

    /// Whether `t` falls inside the DI window.
    pub fn covers_time(&self, t: Timestamp) -> bool {
        self.window.contains(t)
    }

    /// Whether a geo-tag matches one of the DI locations (an absent
    /// location list matches everything; an absent geo-tag matches
    /// nothing when locations are constrained).
    pub fn covers_geo(&self, p: Option<&GeoPoint>) -> bool {
        if self.locations.is_empty() {
            return true;
        }
        match p {
            Some(p) => self.locations.iter().any(|r| r.contains(p)),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_case_insensitive_and_stable() {
        let mut book = CategoryBook::new();
        let a = book.intern("Tourism").unwrap();
        let b = book.intern("tourism ").unwrap();
        let c = book.intern("food").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(book.len(), 2);
        assert_eq!(book.name(a), Some("tourism"));
        assert_eq!(book.lookup("TOURISM"), Some(a));
        assert_eq!(book.lookup("missing"), None);
    }

    #[test]
    fn a_full_book_refuses_new_names_but_finds_old_ones() {
        let mut book = CategoryBook {
            names: (0..CategoryBook::CAPACITY)
                .map(|i| format!("c{i}"))
                .collect(),
        };
        assert_eq!(
            book.intern("one too many"),
            Err(ModelError::CategoryOverflow)
        );
        assert_eq!(book.len(), CategoryBook::CAPACITY);
        let last = CategoryBook::CAPACITY - 1;
        assert_eq!(
            book.intern(format!("c{last}")),
            Ok(CategoryId::new(last as u16))
        );
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut book = CategoryBook::new();
        let ids: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| book.intern(n).unwrap())
            .collect();
        let listed: Vec<_> = book.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, listed);
    }

    #[test]
    fn unconstrained_di_covers_everything() {
        let di = DomainOfInterest::unconstrained("all");
        assert!(di.covers_category(CategoryId::new(9)));
        assert!(di.covers_time(Timestamp::from_days(12_000)));
        assert!(di.covers_geo(None));
        assert!(!di.has_category_filter());
    }

    #[test]
    fn category_filter_restricts() {
        let mut book = CategoryBook::new();
        let tourism = book.intern("tourism").unwrap();
        let food = book.intern("food").unwrap();
        let di = DomainOfInterest::new("t", [tourism], TimeRange::ALL, vec![]);
        assert!(di.covers_category(tourism));
        assert!(!di.covers_category(food));
    }

    #[test]
    fn geo_filter_requires_a_matching_tag() {
        let milan = Region::new("Milan", GeoPoint::new(45.46, 9.19), 30.0);
        let di = DomainOfInterest::new("t", [], TimeRange::ALL, vec![milan]);
        assert!(di.covers_geo(Some(&GeoPoint::new(45.48, 9.2))));
        assert!(!di.covers_geo(Some(&GeoPoint::new(51.5, -0.12))));
        assert!(!di.covers_geo(None));
    }

    #[test]
    fn di_serializes_roundtrip() {
        let mut book = CategoryBook::new();
        let c = book.intern("tourism").unwrap();
        let di = DomainOfInterest::new(
            "milan",
            [c],
            TimeRange::new(Timestamp::from_days(0), Timestamp::from_days(30)),
            vec![Region::new("Milan", GeoPoint::new(45.46, 9.19), 25.0)],
        );
        let json = serde_json::to_string(&di).unwrap();
        let back: DomainOfInterest = serde_json::from_str(&json).unwrap();
        assert_eq!(di, back);
    }
}
