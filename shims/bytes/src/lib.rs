//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the minimal `Bytes` surface it actually uses: a
//! cheaply cloneable, immutable byte buffer with O(1) `slice`. The
//! representation is an `Arc<Vec<u8>>` plus a window, which preserves
//! the real crate's semantics (clones and slices share the same
//! allocation).

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply cloneable, immutable slice of bytes.
///
/// Backed by `Arc<Vec<u8>>` plus a `start..end` window, so a `Bytes`
/// costs two allocations: the `Vec`'s data and the `Arc`'s box around
/// the `Vec` header. `Bytes::from(Vec<u8>)` takes over the `Vec`'s
/// allocation without copying, as the real crate does; the wire codec
/// instead builds each frame with `copy_from_slice`, which sizes the data
/// exactly to the frame.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. Does not allocate (all empties share one
    /// storage block, as in the real crate).
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        Bytes {
            data: EMPTY.get_or_init(|| Arc::new(Vec::new())).clone(),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static byte slice (copied into shared storage here; the
    /// real crate borrows it, but the observable behavior is the same).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from_slice(bytes)
    }

    /// Copies an arbitrary slice into a new shared buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Self::from_slice(bytes)
    }

    fn from_slice(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Bytes::new();
        }
        Bytes {
            data: Arc::new(bytes.to_vec()),
            start: 0,
            end: bytes.len(),
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same allocation. O(1).
    ///
    /// Panics if the range is out of bounds, matching the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not exceed end");
        assert!(end <= len, "range end out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Self::from_static(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Self::from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
    }

    #[test]
    fn empty_and_eq() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(vec![7u8; 3]), Bytes::from(vec![7u8; 3]));
        assert_eq!(Bytes::from(vec![1u8, 2]).to_vec(), vec![1u8, 2]);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(..4);
    }
}
