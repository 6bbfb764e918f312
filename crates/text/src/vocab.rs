//! Keyword interning.
//!
//! All text handling above this module works on dense `u32` ids: set
//! operations become integer-slice merges, and the corpus's posting
//! lists are indexed by id. The [`Vocabulary`] owns the
//! bidirectional string mapping.

use std::collections::HashMap;

/// A dense identifier for an interned keyword string.
///
/// Ids are assigned in first-seen order starting from 0, so a vocabulary
/// built from a frequency-sorted keyword list has id 0 = most frequent
/// term, which the Zipf samplers in `yask-data` rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for KeywordId {
    #[inline]
    fn from(v: u32) -> Self {
        KeywordId(v)
    }
}

/// Bidirectional keyword ↔ id mapping.
///
/// ```
/// use yask_text::Vocabulary;
/// let mut v = Vocabulary::new();
/// let coffee = v.intern("coffee");
/// assert_eq!(v.intern("coffee"), coffee);      // idempotent
/// assert_eq!(v.resolve(coffee), "coffee");
/// assert_eq!(v.lookup("tea"), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    by_name: HashMap<String, KeywordId>,
    by_id: Vec<String>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Vocabulary::default()
    }

    /// Creates a vocabulary pre-filled from an ordered word list.
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut v = Vocabulary::new();
        for w in words {
            v.intern(w.as_ref());
        }
        v
    }

    /// Returns the id for `word`, interning it if unseen. Words are
    /// case-normalized by the tokenizer, not here: the vocabulary stores
    /// exactly what it is given.
    pub fn intern(&mut self, word: &str) -> KeywordId {
        if let Some(&id) = self.by_name.get(word) {
            return id;
        }
        let id = KeywordId(
            u32::try_from(self.by_id.len()).expect("vocabulary exceeded u32 capacity"),
        );
        self.by_name.insert(word.to_owned(), id);
        self.by_id.push(word.to_owned());
        id
    }

    /// Looks a word up without interning.
    pub fn lookup(&self, word: &str) -> Option<KeywordId> {
        self.by_name.get(word).copied()
    }

    /// The string for an id. Panics on a foreign id — ids are only minted
    /// by [`Vocabulary::intern`], so this indicates a cross-vocabulary bug.
    pub fn resolve(&self, id: KeywordId) -> &str {
        &self.by_id[id.index()]
    }

    /// Number of distinct interned keywords.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterates `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, w)| (KeywordId(i as u32), w.as_str()))
    }

    /// Renders a set of ids as a sorted, comma-separated string — used by
    /// explanations and the HTTP layer.
    pub fn render(&self, ids: &[KeywordId]) -> String {
        let mut words: Vec<&str> = ids.iter().map(|&id| self.resolve(id)).collect();
        words.sort_unstable();
        words.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("clean");
        let b = v.intern("comfortable");
        assert_ne!(a, b);
        assert_eq!(v.intern("clean"), a);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), KeywordId(0));
        assert_eq!(v.intern("b"), KeywordId(1));
        assert_eq!(v.intern("c"), KeywordId(2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut v = Vocabulary::new();
        let id = v.intern("luxury");
        assert_eq!(v.resolve(id), "luxury");
    }

    #[test]
    fn lookup_does_not_intern() {
        let v = Vocabulary::new();
        assert_eq!(v.lookup("coffee"), None);
        assert!(v.is_empty());
    }

    #[test]
    fn from_words_preserves_order_and_dedups() {
        let v = Vocabulary::from_words(["x", "y", "x", "z"]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.lookup("x"), Some(KeywordId(0)));
        assert_eq!(v.lookup("z"), Some(KeywordId(2)));
    }

    #[test]
    fn iter_and_render() {
        let mut v = Vocabulary::new();
        let b = v.intern("beta");
        let a = v.intern("alpha");
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (b, "beta"));
        assert_eq!(v.render(&[a, b]), "alpha, beta");
        assert_eq!(v.render(&[b, a]), "alpha, beta");
    }
}
