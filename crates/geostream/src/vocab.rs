//! Interned keyword vocabulary.
//!
//! Objects and queries refer to keywords through compact [`KeywordId`]s.
//! Interning removes string hashing and cloning from every hot path (the
//! estimators process hundreds of thousands of keyword memberships per
//! experiment) and keeps object payloads small.

use std::collections::HashMap;

/// A compact identifier for an interned keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The raw index of this keyword in its vocabulary.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A bidirectional map between keyword strings and [`KeywordId`]s.
///
/// Vocabularies are append-only: ids are stable for the lifetime of the
/// vocabulary, which lets estimators cache per-keyword statistics by index.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
    by_word: HashMap<String, KeywordId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a vocabulary of `n` synthetic terms `kw0000`, `kw0001`, …
    /// Useful for generators that only need term identities, not real text.
    pub fn synthetic(n: usize) -> Self {
        let mut v = Self::new();
        for i in 0..n {
            v.intern(&format!("kw{i:04}"));
        }
        v
    }

    /// Interns `word`, returning its id. Repeated calls with the same word
    /// return the same id.
    pub fn intern(&mut self, word: &str) -> KeywordId {
        if let Some(&id) = self.by_word.get(word) {
            return id;
        }
        let id = KeywordId(
            // LINT-ALLOW(no-panic): a vocabulary beyond u32::MAX keyword ids is unsupported by design; fail loudly
            u32::try_from(self.words.len()).expect("vocabulary exceeded u32::MAX entries"),
        );
        self.words.push(word.to_owned());
        self.by_word.insert(word.to_owned(), id);
        id
    }

    /// Looks up an already-interned word.
    pub fn get(&self, word: &str) -> Option<KeywordId> {
        self.by_word.get(word).copied()
    }

    /// Resolves an id back to its string. Returns `None` for ids from a
    /// different vocabulary.
    pub fn resolve(&self, id: KeywordId) -> Option<&str> {
        self.words.get(id.index()).map(String::as_str)
    }

    /// Number of distinct interned keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over `(id, word)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (KeywordId(i as u32), w.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("fire");
        let b = v.intern("rescue");
        let a2 = v.intern("fire");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut v = Vocabulary::new();
        let id = v.intern("downtown");
        assert_eq!(v.resolve(id), Some("downtown"));
        assert_eq!(v.get("downtown"), Some(id));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.resolve(KeywordId(99)), None);
    }

    #[test]
    fn synthetic_vocab() {
        let v = Vocabulary::synthetic(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.resolve(KeywordId(7)), Some("kw0007"));
        assert!(!v.is_empty());
        assert_eq!(v.iter().count(), 100);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let v = Vocabulary::synthetic(10);
        for (i, (id, _)) in v.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }
}
