//! Offline stand-in for the `bytes` crate.
//!
//! The workspace builds without network access, so external crates are
//! replaced by minimal source-compatible shims. This one provides
//! [`Bytes`]: a cheaply clonable, immutable, reference-counted byte
//! buffer covering the API surface the workspace uses.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable immutable byte buffer.
///
/// Clones share the underlying allocation via `Arc`, and — like the real
/// `bytes::Bytes` — a [`Bytes::slice`] is a zero-copy *view* (offset +
/// length into the shared storage), so sub-slicing a payload costs one
/// reference-count bump, never a memcpy. The storage is the `Vec` itself
/// behind the `Arc`, so `From<Vec<u8>>` is a move, as in the real crate.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes {
            data: Arc::new(Vec::new()),
            off: 0,
            len: 0,
        }
    }

    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a zero-copy view of a sub-range of the buffer: the new
    /// `Bytes` shares the same storage with an adjusted offset/length.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds of {}",
            range.start,
            range.end,
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Returns a zero-copy `Bytes` covering `subset`, which must lie
    /// inside this buffer (the real crate's `slice_ref`).
    ///
    /// # Panics
    ///
    /// Panics if `subset` is not a sub-slice of `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ref().as_ptr() as usize;
        let start = subset.as_ptr() as usize;
        assert!(
            start >= base && start + subset.len() <= base + self.len,
            "slice_ref of a slice outside the buffer"
        );
        let off = start - base;
        self.slice(off..off + subset.len())
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes over `v`'s allocation. Spare capacity is given back first (a
    /// no-op for an exactly sized buffer), so a buffer built by growth
    /// does not pin its slack for as long as any clone lives.
    fn from(mut v: Vec<u8>) -> Self {
        v.shrink_to_fit();
        Bytes {
            len: v.len(),
            data: Arc::new(v),
            off: 0,
        }
    }
}

impl From<Bytes> for Vec<u8> {
    /// Takes the storage back without copying when `b` is its only owner
    /// and views it from the start; copies the viewed range otherwise —
    /// the real crate's contract.
    fn from(b: Bytes) -> Self {
        let Bytes { data, off, len } = b;
        match Arc::try_unwrap(data) {
            Ok(mut v) if off == 0 => {
                v.truncate(len);
                v
            }
            Ok(v) => v[off..off + len].to_vec(),
            Err(shared) => shared[off..off + len].to_vec(),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref().iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_compares() {
        let a = Bytes::copy_from_slice(b"hello");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[..], b"hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn from_and_slice() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(&a.slice(1..3)[..], &[2, 3]);
        assert_eq!(Bytes::from_static(b"x").to_vec(), vec![b'x']);
    }

    #[test]
    fn from_vec_is_a_move() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr, "conversion must not copy");
        assert_eq!(b.len(), 4096);
    }

    #[test]
    fn into_vec_moves_a_sole_owner_and_copies_a_shared_buffer() {
        let b = Bytes::from(vec![7u8; 4096]);
        let ptr = b.as_ref().as_ptr();
        let shared = b.clone();
        let copy = Vec::from(shared);
        assert_ne!(copy.as_ptr(), ptr, "a shared buffer must be copied");
        let v = Vec::from(b);
        assert_eq!(v.as_ptr(), ptr, "the last owner gets the storage itself");
        assert_eq!(v, copy);
        let tail = Bytes::from(vec![1u8, 2, 3, 4]).slice(1..3);
        assert_eq!(Vec::from(tail), vec![2, 3]);
    }

    #[test]
    fn slice_is_zero_copy() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let view = a.slice(2..6);
        assert_eq!(&view[..], &[2, 3, 4, 5]);
        // Same storage: the view's slice starts inside the parent's.
        let base = a.as_ref().as_ptr() as usize;
        let sub = view.as_ref().as_ptr() as usize;
        assert_eq!(sub, base + 2);
        // Slicing a slice composes offsets.
        let inner = view.slice(1..3);
        assert_eq!(&inner[..], &[3, 4]);
        assert_eq!(inner.as_ref().as_ptr() as usize, base + 3);
    }

    #[test]
    fn slice_ref_recovers_a_view() {
        let a = Bytes::from(vec![9u8; 16]);
        let sub = &a.as_ref()[4..9];
        let view = a.slice_ref(sub);
        assert_eq!(view.len(), 5);
        assert_eq!(view.as_ref().as_ptr(), sub.as_ptr());
        assert!(a.slice_ref(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let _ = a.slice(1..5);
    }
}
