//! Process-wide interning of element and attribute names.
//!
//! PR 4 interned XPath *segments* ([`gupster-xpath`]'s `PathInterner`)
//! so the coverage trie and rule index compare integers instead of
//! strings. The arena document representation ([`crate::ArenaDoc`])
//! extends the same pattern down to the XML layer: every element and
//! attribute name is interned once into a [`NameInterner`], and arena
//! nodes carry a 4-byte [`NameId`] instead of an owned `String`.
//!
//! Interned strings are leaked into `'static` storage so
//! [`NameInterner::resolve`] can hand back a `&'static str` without
//! taking an allocation or holding the table lock across the caller's
//! use. Profile vocabularies are schema-bounded (tag and attribute
//! names, not values), so the leak is a small, bounded arena — values
//! are never interned.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned element/attribute name. Two `NameId`s are equal iff the
/// names they were interned from are equal, so tag comparison on the
/// merge hot path is `u32` equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// The process-wide name interner. All methods are associated
/// functions over a global table behind an `RwLock`: interning (rare —
/// first sight of a schema name) takes the write lock; `lookup` and
/// `resolve` on the hot path take the read lock only, and `resolve`
/// returns `&'static str` so no clone escapes the lock.
#[derive(Debug, Default)]
pub struct NameInterner {
    map: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn global() -> &'static RwLock<NameInterner> {
    static GLOBAL: OnceLock<RwLock<NameInterner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(NameInterner::default()))
}

impl NameInterner {
    /// Interns `s`, returning its stable [`NameId`]. Idempotent.
    pub fn intern(s: &str) -> NameId {
        if let Some(id) = Self::lookup(s) {
            return id;
        }
        let mut g = global().write().expect("name interner lock");
        if let Some(&id) = g.map.get(s) {
            return NameId(id);
        }
        let id = g.names.len() as u32;
        let stored: &'static str = Box::leak(s.to_string().into_boxed_str());
        g.names.push(stored);
        g.map.insert(stored, id);
        NameId(id)
    }

    /// The [`NameId`] of `s` if it was ever interned. Read-lock only —
    /// an attribute name that was never interned cannot appear on any
    /// arena node.
    pub fn lookup(s: &str) -> Option<NameId> {
        global().read().expect("name interner lock").map.get(s).copied().map(NameId)
    }

    /// The name a [`NameId`] was interned from.
    pub fn resolve(id: NameId) -> &'static str {
        global().read().expect("name interner lock").names[id.0 as usize]
    }

    /// Number of distinct names interned so far.
    pub fn len() -> usize {
        global().read().expect("name interner lock").names.len()
    }
}

impl fmt::Display for NameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(NameInterner::resolve(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_comparable() {
        let a = NameInterner::intern("address-book");
        let b = NameInterner::intern("address-book");
        let c = NameInterner::intern("name-intern-test-distinct");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(NameInterner::resolve(a), "address-book");
        assert_eq!(NameInterner::lookup("address-book"), Some(a));
        assert_eq!(a.to_string(), "address-book");
        assert!(NameInterner::len() >= 2);
    }

    #[test]
    fn lookup_does_not_grow_the_table() {
        // The table is global and other tests intern concurrently, so
        // its length proves nothing; the looked-up name staying absent
        // does.
        let name = "never-interned-name-xyzzy";
        assert_eq!(NameInterner::lookup(name), None);
        assert_eq!(NameInterner::lookup(name), None, "a lookup must not intern");
    }

    #[test]
    fn resolve_is_static_and_lock_free_to_hold() {
        let id = NameInterner::intern("held-across-interning");
        let held: &'static str = NameInterner::resolve(id);
        // Interning more names must not invalidate the held reference.
        for i in 0..64 {
            NameInterner::intern(&format!("churn-{i}"));
        }
        assert_eq!(held, "held-across-interning");
    }
}
