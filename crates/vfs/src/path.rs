use std::fmt;

use crate::VfsError;

/// The longest path a [`VPath`] holds, in bytes (`PATH_MAX`). Paths
/// cross the wire behind a `u16` length, so the bound also leaves room
/// for the suffixes the cloud appends to conflict copies.
pub const PATH_MAX: usize = 4096;

/// A normalized, absolute path inside a [`Vfs`](crate::Vfs).
///
/// `VPath` guarantees the invariants the rest of the stack relies on:
/// it is absolute, uses `/` separators, contains no empty, `.` or `..`
/// components, and has no trailing slash (except the root itself). The
/// relation table compares paths for equality, so a canonical form is
/// essential.
///
/// # Example
///
/// ```
/// use deltacfs_vfs::VPath;
///
/// let p = VPath::new("/a//b/./c")?;
/// assert_eq!(p.as_str(), "/a/b/c");
/// assert_eq!(p.file_name(), Some("c"));
/// assert_eq!(p.parent().unwrap().as_str(), "/a/b");
/// # Ok::<(), deltacfs_vfs::VfsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VPath(String);

impl VPath {
    /// Parses and normalizes `raw` into a `VPath`.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidArgument`] if `raw` is relative, empty,
    /// contains `..` components (the in-memory VFS has no notion of a
    /// current directory, so these are always programming errors), or
    /// normalizes to more than [`PATH_MAX`] bytes.
    pub fn new(raw: &str) -> Result<Self, VfsError> {
        if !raw.starts_with('/') {
            return Err(VfsError::InvalidArgument(format!(
                "path must be absolute: {raw:?}"
            )));
        }
        let mut parts: Vec<&str> = Vec::new();
        for comp in raw.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    return Err(VfsError::InvalidArgument(format!(
                        "path must not contain '..': {raw:?}"
                    )))
                }
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            Ok(VPath("/".to_string()))
        } else {
            bounded(format!("/{}", parts.join("/")))
        }
    }

    /// The root path, `/`.
    pub fn root() -> Self {
        VPath("/".to_string())
    }

    /// Returns the normalized string form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns `true` if this is the root directory.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rsplit('/').next()
        }
    }

    /// The parent directory, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(VPath::root()),
            Some(idx) => Some(VPath(self.0[..idx].to_string())),
            None => None,
        }
    }

    /// Appends a single component, returning a new path.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidArgument`] if `component` is empty or
    /// contains a slash, or if the joined path exceeds [`PATH_MAX`] bytes.
    pub fn join(&self, component: &str) -> Result<VPath, VfsError> {
        if component.is_empty() || component.contains('/') {
            return Err(VfsError::InvalidArgument(format!(
                "invalid path component: {component:?}"
            )));
        }
        if self.is_root() {
            bounded(format!("/{component}"))
        } else {
            bounded(format!("{}/{component}", self.0))
        }
    }

    /// Iterates over the path components (excluding the root).
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// Returns `true` if `self` is `other` or lies underneath it.
    pub fn starts_with(&self, other: &VPath) -> bool {
        if other.is_root() {
            return true;
        }
        self.0 == other.0 || self.0.starts_with(&format!("{}/", other.0))
    }
}

/// Wraps a normalized path, rejecting one longer than [`PATH_MAX`].
fn bounded(path: String) -> Result<VPath, VfsError> {
    if path.len() > PATH_MAX {
        return Err(VfsError::InvalidArgument(format!(
            "path of {} bytes exceeds PATH_MAX ({PATH_MAX})",
            path.len()
        )));
    }
    Ok(VPath(path))
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for VPath {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for VPath {
    type Err = VfsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VPath::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_duplicate_slashes_and_dots() {
        assert_eq!(VPath::new("/a//b/./c").unwrap().as_str(), "/a/b/c");
        assert_eq!(VPath::new("/").unwrap().as_str(), "/");
        assert_eq!(VPath::new("//").unwrap().as_str(), "/");
        assert_eq!(VPath::new("/a/").unwrap().as_str(), "/a");
    }

    #[test]
    fn rejects_relative_and_dotdot() {
        assert!(VPath::new("a/b").is_err());
        assert!(VPath::new("").is_err());
        assert!(VPath::new("/a/../b").is_err());
    }

    #[test]
    fn rejects_paths_longer_than_path_max() {
        let longest = format!("/{}", "a".repeat(PATH_MAX - 1));
        assert_eq!(VPath::new(&longest).unwrap().as_str().len(), PATH_MAX);
        let over = format!("/{}", "a".repeat(PATH_MAX));
        assert!(matches!(
            VPath::new(&over),
            Err(VfsError::InvalidArgument(_))
        ));
        // The bound is on the normalized form, and `join` keeps it.
        assert!(VPath::new(&format!("//{}", "a".repeat(PATH_MAX - 1))).is_ok());
        let dir = VPath::new(&format!("/{}", "d".repeat(PATH_MAX - 2))).unwrap();
        assert!(matches!(dir.join("f"), Err(VfsError::InvalidArgument(_))));
    }

    #[test]
    fn parent_and_file_name() {
        let p = VPath::new("/a/b/c").unwrap();
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap().as_str(), "/a/b");
        assert_eq!(VPath::new("/a").unwrap().parent().unwrap().as_str(), "/");
        assert!(VPath::root().parent().is_none());
        assert!(VPath::root().file_name().is_none());
    }

    #[test]
    fn join_builds_children() {
        let p = VPath::root().join("a").unwrap().join("b").unwrap();
        assert_eq!(p.as_str(), "/a/b");
        assert!(VPath::root().join("a/b").is_err());
        assert!(VPath::root().join("").is_err());
    }

    #[test]
    fn starts_with_is_component_wise() {
        let a = VPath::new("/a/b").unwrap();
        let ab = VPath::new("/a/bc").unwrap();
        assert!(ab.starts_with(&VPath::new("/a").unwrap()));
        assert!(!ab.starts_with(&a));
        assert!(a.starts_with(&a));
        assert!(a.starts_with(&VPath::root()));
    }

    #[test]
    fn components_iterates_in_order() {
        let p = VPath::new("/a/b/c").unwrap();
        assert_eq!(p.components().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        assert_eq!(VPath::root().components().count(), 0);
    }
}
