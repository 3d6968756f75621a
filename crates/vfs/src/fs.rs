use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use crate::event::{OpEvent, OpObserver};
use crate::path::VPath;
use crate::stats::IoStats;
use crate::{Result, VfsError};

/// Identifier of an open file handle returned by [`Vfs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) u64);

/// The kind of a file-system node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// Metadata reported by [`Vfs::metadata`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metadata {
    /// Whether the node is a file or directory.
    pub kind: FileKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Number of hard links pointing at the node.
    pub nlink: u32,
}

/// One entry in a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The entry's name within its directory.
    pub name: String,
    /// Whether the entry is a file or directory.
    pub kind: FileKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InodeId(u64);

#[derive(Debug)]
enum Node {
    File {
        data: Vec<u8>,
        nlink: u32,
        open: u32,
    },
    Dir {
        children: BTreeMap<String, InodeId>,
    },
}

#[derive(Debug)]
struct HandleState {
    inode: InodeId,
    path: VPath,
}

/// An in-memory file system with operation interception.
///
/// `Vfs` supports two ways of observing operations:
///
/// * an inline [`OpObserver`] ([`Vfs::set_observer`]) that runs synchronously
///   inside each operation — this is how DeltaCFS hangs off LibFuse, and it
///   is what the Table III micro-benchmarks exercise (interception work slows
///   the application's IO path);
/// * a built-in event log ([`Vfs::enable_event_log`] / [`Vfs::drain_events`])
///   for replay drivers that want to pump events into an engine between
///   operations.
///
/// Both deliver the same [`OpEvent`] stream.
pub struct Vfs {
    inodes: HashMap<u64, Node>,
    next_inode: u64,
    next_handle: u64,
    handles: HashMap<u64, HandleState>,
    observer: Option<Box<dyn OpObserver>>,
    event_log: Option<Vec<OpEvent>>,
    capacity: Option<u64>,
    used: u64,
    stats: IoStats,
    /// Writes and truncates applied so far ([`Vfs::content_stamp`]).
    content_changes: u64,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("inodes", &self.inodes.len())
            .field("used", &self.used)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// A [`Vfs`] whose event log is paused ([`Vfs::pause_event_log`]); the
/// log comes back, with everything it held, when this is dropped.
pub struct PausedEventLog<'a> {
    fs: &'a mut Vfs,
    log: Option<Vec<OpEvent>>,
}

impl std::ops::Deref for PausedEventLog<'_> {
    type Target = Vfs;
    fn deref(&self) -> &Vfs {
        self.fs
    }
}

impl std::ops::DerefMut for PausedEventLog<'_> {
    fn deref_mut(&mut self) -> &mut Vfs {
        self.fs
    }
}

impl Drop for PausedEventLog<'_> {
    fn drop(&mut self) {
        self.fs.event_log = self.log.take();
    }
}

const ROOT: InodeId = InodeId(1);

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty file system containing only the root directory.
    pub fn new() -> Self {
        let mut inodes = HashMap::new();
        inodes.insert(
            ROOT.0,
            Node::Dir {
                children: BTreeMap::new(),
            },
        );
        Vfs {
            inodes,
            next_inode: 2,
            next_handle: 1,
            handles: HashMap::new(),
            observer: None,
            event_log: None,
            capacity: None,
            used: 0,
            stats: IoStats::new(),
            content_changes: 0,
        }
    }

    /// Creates a file system with a byte-capacity limit; writes that would
    /// exceed it fail with [`VfsError::NoSpace`].
    pub fn with_capacity(limit: u64) -> Self {
        let mut fs = Self::new();
        fs.capacity = Some(limit);
        fs
    }

    /// Installs an inline observer, replacing any previous one.
    pub fn set_observer(&mut self, obs: Box<dyn OpObserver>) {
        self.observer = Some(obs);
    }

    /// Switches on the built-in event log.
    pub fn enable_event_log(&mut self) {
        if self.event_log.is_none() {
            self.event_log = Some(Vec::new());
        }
    }

    /// Drains and returns all events logged since the last drain.
    ///
    /// Returns an empty vector when the event log is disabled.
    pub fn drain_events(&mut self) -> Vec<OpEvent> {
        match &mut self.event_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Whether the event log holds events that were not drained yet.
    pub fn has_events(&self) -> bool {
        self.event_log.as_ref().is_some_and(|log| !log.is_empty())
    }

    /// Pauses the event log for as long as the returned guard lives:
    /// operations performed through the guard are not logged, and the
    /// events logged before the pause are all still there when it ends.
    /// A sync engine applies *remote* updates through this, so they
    /// neither come back as local edits nor cost the local edits already
    /// waiting in the log. An inline observer keeps observing.
    pub fn pause_event_log(&mut self) -> PausedEventLog<'_> {
        let log = self.event_log.take();
        PausedEventLog { fs: self, log }
    }

    /// Whether anybody receives this file system's events. With no
    /// listener an operation skips capturing the bytes only an event
    /// would carry.
    fn observed(&self) -> bool {
        self.event_log.is_some() || self.observer.is_some()
    }

    /// IO counters accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets the IO counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Runs the observer on `event`, then moves it into the log: the
    /// event is never cloned.
    fn emit(&mut self, event: OpEvent) {
        if let Some(obs) = &mut self.observer {
            obs.on_op(&event);
        }
        if let Some(log) = &mut self.event_log {
            log.push(event);
        }
    }

    fn alloc_inode(&mut self, node: Node) -> InodeId {
        let id = self.next_inode;
        self.next_inode += 1;
        self.inodes.insert(id, node);
        InodeId(id)
    }

    fn resolve(&self, path: &VPath) -> Result<InodeId> {
        let mut cur = ROOT;
        for comp in path.components() {
            match self.inodes.get(&cur.0) {
                Some(Node::Dir { children }) => match children.get(comp) {
                    Some(id) => cur = *id,
                    None => return Err(VfsError::NotFound(path.to_string())),
                },
                Some(Node::File { .. }) => return Err(VfsError::NotADirectory(path.to_string())),
                None => return Err(VfsError::NotFound(path.to_string())),
            }
        }
        Ok(cur)
    }

    fn resolve_parent(&self, path: &VPath) -> Result<(InodeId, String)> {
        let parent = path
            .parent()
            .ok_or_else(|| VfsError::InvalidArgument("root has no parent".into()))?;
        let name = path
            .file_name()
            .ok_or_else(|| VfsError::InvalidArgument("path has no file name".into()))?
            .to_string();
        let pid = self.resolve(&parent)?;
        match self.inodes.get(&pid.0) {
            Some(Node::Dir { .. }) => Ok((pid, name)),
            _ => Err(VfsError::NotADirectory(parent.to_string())),
        }
    }

    fn dir_children_mut(&mut self, id: InodeId) -> &mut BTreeMap<String, InodeId> {
        match self.inodes.get_mut(&id.0) {
            Some(Node::Dir { children }) => children,
            _ => unreachable!("dir_children_mut on non-directory"),
        }
    }

    fn file_data(&self, id: InodeId, path: &VPath) -> Result<&Vec<u8>> {
        match self.inodes.get(&id.0) {
            Some(Node::File { data, .. }) => Ok(data),
            Some(Node::Dir { .. }) => Err(VfsError::IsADirectory(path.to_string())),
            None => Err(VfsError::NotFound(path.to_string())),
        }
    }

    fn check_space(&self, additional: u64) -> Result<()> {
        if let Some(cap) = self.capacity {
            if self.used.saturating_add(additional) > cap {
                return Err(VfsError::NoSpace);
            }
        }
        Ok(())
    }

    /// Returns `true` if `path` exists (file or directory).
    pub fn exists(&self, path: &str) -> bool {
        VPath::new(path)
            .ok()
            .map(|p| self.resolve(&p).is_ok())
            .unwrap_or(false)
    }

    /// Returns metadata for `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the path does not exist.
    pub fn metadata(&self, path: &str) -> Result<Metadata> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        Ok(match self.inodes.get(&id.0) {
            Some(Node::File { data, nlink, .. }) => Metadata {
                kind: FileKind::File,
                size: data.len() as u64,
                nlink: *nlink,
            },
            Some(Node::Dir { .. }) => Metadata {
                kind: FileKind::Directory,
                size: 0,
                nlink: 1,
            },
            None => return Err(VfsError::NotFound(path.to_string())),
        })
    }

    /// Creates an empty regular file.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken,
    /// [`VfsError::NotFound`] if the parent directory is missing.
    pub fn create(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        let (pid, name) = self.resolve_parent(&p)?;
        if self.dir_children_mut(pid).contains_key(&name) {
            return Err(VfsError::AlreadyExists(p.to_string()));
        }
        let id = self.alloc_inode(Node::File {
            data: Vec::new(),
            nlink: 1,
            open: 0,
        });
        self.dir_children_mut(pid).insert(name, id);
        self.stats.mutations += 1;
        self.emit(OpEvent::Create { path: p });
        Ok(())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the name is taken,
    /// [`VfsError::NotFound`] if the parent directory is missing.
    pub fn mkdir(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        let (pid, name) = self.resolve_parent(&p)?;
        if self.dir_children_mut(pid).contains_key(&name) {
            return Err(VfsError::AlreadyExists(p.to_string()));
        }
        let id = self.alloc_inode(Node::Dir {
            children: BTreeMap::new(),
        });
        self.dir_children_mut(pid).insert(name, id);
        self.stats.mutations += 1;
        self.emit(OpEvent::Mkdir { path: p });
        Ok(())
    }

    /// Creates `path` and all missing ancestors as directories.
    ///
    /// Existing directories along the way are left untouched.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a non-final component is a file.
    pub fn mkdir_all(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        let mut cur = VPath::root();
        for comp in p.components() {
            cur = cur.join(comp)?;
            match self.resolve(&cur) {
                Ok(id) => match self.inodes.get(&id.0) {
                    Some(Node::Dir { .. }) => {}
                    _ => return Err(VfsError::NotADirectory(cur.to_string())),
                },
                Err(VfsError::NotFound(_)) => self.mkdir(cur.as_str())?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes `data` at byte `offset`, extending (zero-filling) as needed.
    ///
    /// Emits an [`OpEvent::Write`] carrying both the written and the
    /// overwritten bytes.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for bad targets,
    /// [`VfsError::NoSpace`] if the capacity limit would be exceeded.
    pub fn write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        let old_len = self.file_data(id, &p)?.len() as u64;
        let end = offset + data.len() as u64;
        let growth = end.saturating_sub(old_len);
        self.check_space(growth)?;
        let observed = self.observed();
        let overwritten = {
            let file = match self.inodes.get_mut(&id.0) {
                Some(Node::File { data, .. }) => data,
                Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(p.to_string())),
                None => return Err(VfsError::NotFound(p.to_string())),
            };
            let ow_end = end.min(old_len);
            let overwritten = if observed && offset < ow_end {
                Bytes::copy_from_slice(&file[offset as usize..ow_end as usize])
            } else {
                Bytes::new()
            };
            if end > old_len {
                file.resize(end as usize, 0);
            }
            file[offset as usize..end as usize].copy_from_slice(data);
            overwritten
        };
        self.used += growth;
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.mutations += 1;
        self.content_changes += 1;
        if observed {
            self.emit(OpEvent::Write {
                path: p,
                offset,
                data: Bytes::copy_from_slice(data),
                overwritten,
                stamp: self.content_changes,
            });
        }
        Ok(())
    }

    /// Reads up to `len` bytes starting at `offset` (clamped at EOF).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for bad targets.
    pub fn read(&mut self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        let data = self.file_data(id, &p)?;
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        let out = data[start..end].to_vec();
        self.stats.reads += 1;
        self.stats.bytes_read += out.len() as u64;
        Ok(out)
    }

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read`].
    pub fn read_all(&mut self, path: &str) -> Result<Vec<u8>> {
        let size = self.metadata(path)?.size;
        self.read(path, 0, size as usize)
    }

    /// Reads the whole file without touching the IO counters.
    ///
    /// Sync engines use this for their own scans so that [`IoStats`]
    /// reflects only application IO plus engine IO counted explicitly.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read`].
    pub fn peek_all(&self, path: &str) -> Result<Vec<u8>> {
        self.peek_slice(path).map(<[u8]>::to_vec)
    }

    /// Borrows the whole file in place, without touching the IO counters:
    /// the view a sync engine's matcher reads, so a delta costs no copy of
    /// either version. The borrow ends before the next mutation.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read`].
    pub fn peek_slice(&self, path: &str) -> Result<&[u8]> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        Ok(self.file_data(id, &p)?)
    }

    /// How many writes and truncates this file system has applied: the
    /// `stamp` of the latest [`OpEvent::Write`] or [`OpEvent::Truncate`].
    /// An observer holding an event whose stamp equals it sees every
    /// file's bytes exactly as that event left them; bytes changed
    /// outside the interception layer ([`Vfs::inject_bit_flip`]) leave
    /// it alone.
    pub fn content_stamp(&self) -> u64 {
        self.content_changes
    }

    /// Reads up to `len` bytes at `offset` without touching the IO
    /// counters (clamped at EOF), for engine-internal scans.
    ///
    /// # Errors
    ///
    /// Same as [`Vfs::read`].
    pub fn peek_range(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        let data = self.file_data(id, &p)?;
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// Truncates (or zero-extends) the file to `size` bytes.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for bad targets,
    /// [`VfsError::NoSpace`] when growing past the capacity limit.
    pub fn truncate(&mut self, path: &str, size: u64) -> Result<()> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        let old_len = self.file_data(id, &p)?.len() as u64;
        let growth = size.saturating_sub(old_len);
        self.check_space(growth)?;
        let observed = self.observed();
        let cut = {
            let file = match self.inodes.get_mut(&id.0) {
                Some(Node::File { data, .. }) => data,
                Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(p.to_string())),
                None => return Err(VfsError::NotFound(p.to_string())),
            };
            let cut = if observed && size < old_len {
                Bytes::copy_from_slice(&file[size as usize..])
            } else {
                Bytes::new()
            };
            file.resize(size as usize, 0);
            cut
        };
        self.used = self.used + growth - old_len.saturating_sub(size);
        self.stats.mutations += 1;
        self.content_changes += 1;
        if observed {
            self.emit(OpEvent::Truncate {
                path: p,
                size,
                cut,
                stamp: self.content_changes,
            });
        }
        Ok(())
    }

    /// Atomically renames `src` to `dst`, replacing an existing file at
    /// `dst` (POSIX semantics).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if `src` or `dst`'s parent is missing,
    /// [`VfsError::AlreadyExists`] if `dst` is a directory.
    pub fn rename(&mut self, src: &str, dst: &str) -> Result<()> {
        let sp = VPath::new(src)?;
        let dp = VPath::new(dst)?;
        if sp == dp {
            // POSIX: renaming a path onto itself succeeds, but only if it
            // exists.
            self.resolve(&sp)?;
            return Ok(());
        }
        if dp.starts_with(&sp) {
            return Err(VfsError::InvalidArgument(
                "cannot rename a directory into itself".into(),
            ));
        }
        let sid = self.resolve(&sp)?;
        let (spid, sname) = self.resolve_parent(&sp)?;
        let (dpid, dname) = self.resolve_parent(&dp)?;
        // POSIX forbids replacing a directory with a file and requires an
        // empty target directory; we only allow replacing regular files.
        let replaced = match self.dir_children_mut(dpid).get(&dname).copied() {
            Some(did) => {
                let shared = match self.inodes.get(&did.0) {
                    Some(Node::Dir { .. }) => return Err(VfsError::AlreadyExists(dp.to_string())),
                    Some(Node::File { nlink, .. }) => *nlink > 1,
                    None => return Err(VfsError::NotFound(dp.to_string())),
                };
                // If other hard links keep the inode alive (gedit's f~),
                // the old content must be copied for the event; otherwise
                // it is moved out of the dying inode for free.
                if shared {
                    let copy = match self.inodes.get(&did.0) {
                        Some(Node::File { data, .. }) => Bytes::copy_from_slice(data),
                        _ => Bytes::new(),
                    };
                    self.drop_link(did);
                    Some(copy)
                } else {
                    Some(Bytes::from(self.drop_link(did).unwrap_or_default()))
                }
            }
            None => None,
        };
        self.dir_children_mut(spid).remove(&sname);
        self.dir_children_mut(dpid).insert(dname, sid);
        self.stats.mutations += 1;
        self.emit(OpEvent::Rename {
            src: sp,
            dst: dp,
            replaced,
        });
        Ok(())
    }

    /// Creates a hard link `dst` pointing at the file `src`.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] if `src` is a directory,
    /// [`VfsError::AlreadyExists`] if `dst` exists.
    pub fn link(&mut self, src: &str, dst: &str) -> Result<()> {
        let sp = VPath::new(src)?;
        let dp = VPath::new(dst)?;
        let sid = self.resolve(&sp)?;
        match self.inodes.get_mut(&sid.0) {
            Some(Node::File { nlink, .. }) => *nlink += 1,
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(sp.to_string())),
            None => return Err(VfsError::NotFound(sp.to_string())),
        }
        let (dpid, dname) = match self.resolve_parent(&dp) {
            Ok(v) => v,
            Err(e) => {
                self.dec_nlink(sid);
                return Err(e);
            }
        };
        if self.dir_children_mut(dpid).contains_key(&dname) {
            self.dec_nlink(sid);
            return Err(VfsError::AlreadyExists(dp.to_string()));
        }
        self.dir_children_mut(dpid).insert(dname, sid);
        self.stats.mutations += 1;
        self.emit(OpEvent::Link { src: sp, dst: dp });
        Ok(())
    }

    fn dec_nlink(&mut self, id: InodeId) {
        if let Some(Node::File { nlink, .. }) = self.inodes.get_mut(&id.0) {
            *nlink -= 1;
        }
    }

    /// Drops one link to `id`, freeing the inode when the count hits zero.
    /// Returns the dying inode's content if it was freed.
    fn drop_link(&mut self, id: InodeId) -> Option<Vec<u8>> {
        match self.inodes.get_mut(&id.0) {
            Some(Node::File { nlink, data, .. }) => {
                *nlink -= 1;
                if *nlink == 0 {
                    self.used -= data.len() as u64;
                    match self.inodes.remove(&id.0) {
                        Some(Node::File { data, .. }) => Some(data),
                        _ => unreachable!("inode changed kind"),
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Removes the link at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] if `path` is a directory (use
    /// [`Vfs::rmdir`]), [`VfsError::NotFound`] if it does not exist.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        if matches!(self.inodes.get(&id.0), Some(Node::Dir { .. })) {
            return Err(VfsError::IsADirectory(p.to_string()));
        }
        let (pid, name) = self.resolve_parent(&p)?;
        self.dir_children_mut(pid).remove(&name);
        let removed = self.drop_link(id).map(Bytes::from);
        self.stats.mutations += 1;
        self.emit(OpEvent::Unlink { path: p, removed });
        Ok(())
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotEmpty`] if the directory has entries,
    /// [`VfsError::NotADirectory`] if `path` is a file.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        if p.is_root() {
            return Err(VfsError::InvalidArgument("cannot remove root".into()));
        }
        let id = self.resolve(&p)?;
        match self.inodes.get(&id.0) {
            Some(Node::Dir { children }) => {
                if !children.is_empty() {
                    return Err(VfsError::NotEmpty(p.to_string()));
                }
            }
            _ => return Err(VfsError::NotADirectory(p.to_string())),
        }
        let (pid, name) = self.resolve_parent(&p)?;
        self.dir_children_mut(pid).remove(&name);
        self.inodes.remove(&id.0);
        self.stats.mutations += 1;
        self.emit(OpEvent::Rmdir { path: p });
        Ok(())
    }

    /// Opens the file and returns a handle; the matching [`Vfs::close`]
    /// emits [`OpEvent::Close`] when it closes the last open handle.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for bad targets.
    pub fn open(&mut self, path: &str) -> Result<Handle> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        match self.inodes.get_mut(&id.0) {
            Some(Node::File { open, .. }) => *open += 1,
            Some(Node::Dir { .. }) => return Err(VfsError::IsADirectory(p.to_string())),
            None => return Err(VfsError::NotFound(p.to_string())),
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, HandleState { inode: id, path: p });
        Ok(Handle(h))
    }

    /// Closes `handle`, emitting [`OpEvent::Close`] when this was the last
    /// open handle on the file.
    ///
    /// # Errors
    ///
    /// [`VfsError::BadHandle`] if the handle is unknown.
    pub fn close(&mut self, handle: Handle) -> Result<()> {
        let st = self
            .handles
            .remove(&handle.0)
            .ok_or(VfsError::BadHandle(handle.0))?;
        let emit = match self.inodes.get_mut(&st.inode.0) {
            Some(Node::File { open, .. }) => {
                *open = open.saturating_sub(1);
                *open == 0
            }
            _ => false,
        };
        if emit {
            self.emit(OpEvent::Close { path: st.path });
        }
        Ok(())
    }

    /// Emits a [`OpEvent::Close`] for `path` without handle bookkeeping.
    ///
    /// Trace replay uses this when the recorded trace contains explicit
    /// close operations.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the path does not exist.
    pub fn close_path(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        self.resolve(&p)?;
        self.emit(OpEvent::Close { path: p });
        Ok(())
    }

    /// Emits a [`OpEvent::Fsync`] for `path` (data is always durable in an
    /// in-memory store; the event exists for engines that act on fsync).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if the path does not exist.
    pub fn fsync(&mut self, path: &str) -> Result<()> {
        let p = VPath::new(path)?;
        self.resolve(&p)?;
        self.emit(OpEvent::Fsync { path: p });
        Ok(())
    }

    /// Lists the entries of the directory at `path`, sorted by name.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if `path` is a file.
    pub fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        match self.inodes.get(&id.0) {
            Some(Node::Dir { children }) => Ok(children
                .iter()
                .map(|(name, cid)| DirEntry {
                    name: name.clone(),
                    kind: match self.inodes.get(&cid.0) {
                        Some(Node::Dir { .. }) => FileKind::Directory,
                        _ => FileKind::File,
                    },
                })
                .collect()),
            _ => Err(VfsError::NotADirectory(p.to_string())),
        }
    }

    /// Recursively lists all regular files under `path`, sorted.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] if `path` does not exist.
    pub fn walk_files(&self, path: &str) -> Result<Vec<VPath>> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        let mut out = Vec::new();
        self.walk_inner(id, &p, &mut out);
        Ok(out)
    }

    fn walk_inner(&self, id: InodeId, at: &VPath, out: &mut Vec<VPath>) {
        match self.inodes.get(&id.0) {
            Some(Node::Dir { children }) => {
                for (name, cid) in children {
                    let child = at.join(name).expect("names are valid components");
                    self.walk_inner(*cid, &child, out);
                }
            }
            Some(Node::File { .. }) => out.push(at.clone()),
            None => {}
        }
    }

    /// Flips one bit of the stored file content *without* emitting an event.
    ///
    /// This models silent disk corruption underneath the sync client, the
    /// fault the paper injects with `debugfs` in §IV-E.
    ///
    /// # Errors
    ///
    /// [`VfsError::InvalidArgument`] if `byte` is out of range.
    pub fn inject_bit_flip(&mut self, path: &str, byte: u64, bit: u8) -> Result<()> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        match self.inodes.get_mut(&id.0) {
            Some(Node::File { data, .. }) => {
                let idx = byte as usize;
                if idx >= data.len() {
                    return Err(VfsError::InvalidArgument(format!(
                        "byte {byte} out of range (len {})",
                        data.len()
                    )));
                }
                data[idx] ^= 1 << (bit % 8);
                Ok(())
            }
            _ => Err(VfsError::IsADirectory(p.to_string())),
        }
    }

    /// Overwrites file content *without* emitting an event, extending the
    /// file if needed.
    ///
    /// This models crash inconsistency under ordered journaling: data blocks
    /// changed while metadata (and the interception layer) never saw the
    /// write (§IV-E, footnote 6).
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for bad targets.
    pub fn inject_torn_write(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        let p = VPath::new(path)?;
        let id = self.resolve(&p)?;
        match self.inodes.get_mut(&id.0) {
            Some(Node::File { data: file, .. }) => {
                let end = offset as usize + data.len();
                if end > file.len() {
                    self.used += (end - file.len()) as u64;
                    file.resize(end, 0);
                }
                file[offset as usize..end].copy_from_slice(data);
                Ok(())
            }
            _ => Err(VfsError::IsADirectory(p.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn fs_with_file(path: &str, content: &[u8]) -> Vfs {
        let mut fs = Vfs::new();
        fs.create(path).unwrap();
        fs.write(path, 0, content).unwrap();
        fs
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs_with_file("/a", b"hello world");
        assert_eq!(fs.read("/a", 0, 5).unwrap(), b"hello");
        assert_eq!(fs.read("/a", 6, 100).unwrap(), b"world");
        assert_eq!(fs.read_all("/a").unwrap(), b"hello world");
        assert_eq!(fs.metadata("/a").unwrap().size, 11);
    }

    #[test]
    fn write_past_eof_zero_fills() {
        let mut fs = fs_with_file("/a", b"ab");
        fs.write("/a", 5, b"z").unwrap();
        assert_eq!(fs.read_all("/a").unwrap(), b"ab\0\0\0z");
    }

    #[test]
    fn write_reports_overwritten_bytes() {
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"abcdef").unwrap();
        fs.write("/a", 2, b"XYZW").unwrap();
        let events = fs.drain_events();
        match &events[2] {
            OpEvent::Write {
                overwritten, data, ..
            } => {
                assert_eq!(&overwritten[..], b"cdef");
                assert_eq!(&data[..], b"XYZW");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn writes_and_truncates_stamp_their_events_and_nothing_else_moves_the_stamp() {
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"abcdef").unwrap();
        fs.truncate("/a", 3).unwrap();
        fs.rename("/a", "/b").unwrap();
        fs.inject_bit_flip("/b", 0, 1).unwrap();
        assert_eq!(fs.content_stamp(), 2);
        let stamps: Vec<u64> = fs
            .drain_events()
            .iter()
            .filter_map(|e| match e {
                OpEvent::Write { stamp, .. } | OpEvent::Truncate { stamp, .. } => Some(*stamp),
                _ => None,
            })
            .collect();
        assert_eq!(stamps, [1, 2]);
    }

    #[test]
    fn write_extension_overwritten_is_partial() {
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"abc").unwrap();
        fs.write("/a", 2, b"1234").unwrap();
        let events = fs.drain_events();
        match &events[2] {
            OpEvent::Write { overwritten, .. } => assert_eq!(&overwritten[..], b"c"),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(fs.read_all("/a").unwrap(), b"ab1234");
    }

    #[test]
    fn truncate_shrinks_and_reports_cut() {
        let mut fs = fs_with_file("/a", b"abcdef");
        fs.enable_event_log();
        fs.truncate("/a", 2).unwrap();
        assert_eq!(fs.read_all("/a").unwrap(), b"ab");
        match &fs.drain_events()[0] {
            OpEvent::Truncate { cut, size, .. } => {
                assert_eq!(&cut[..], b"cdef");
                assert_eq!(*size, 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn truncate_grows_with_zeros() {
        let mut fs = fs_with_file("/a", b"ab");
        fs.truncate("/a", 4).unwrap();
        assert_eq!(fs.read_all("/a").unwrap(), b"ab\0\0");
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut fs = fs_with_file("/a", b"new");
        fs.create("/b").unwrap();
        fs.write("/b", 0, b"old").unwrap();
        fs.enable_event_log();
        fs.rename("/a", "/b").unwrap();
        assert!(!fs.exists("/a"));
        assert_eq!(fs.read_all("/b").unwrap(), b"new");
        match &fs.drain_events()[0] {
            OpEvent::Rename { replaced, .. } => {
                assert_eq!(replaced.as_deref(), Some(&b"old"[..]))
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn rename_over_hard_linked_file_reports_old_content() {
        // gedit's pattern: f~ keeps the old inode alive, yet the rename
        // event still carries f's previous content for delta triggering.
        let mut fs = fs_with_file("/f", b"old-content");
        fs.link("/f", "/f~").unwrap();
        fs.create("/tmp0").unwrap();
        fs.write("/tmp0", 0, b"new-content").unwrap();
        fs.enable_event_log();
        fs.rename("/tmp0", "/f").unwrap();
        match &fs.drain_events()[0] {
            OpEvent::Rename { replaced, .. } => {
                assert_eq!(replaced.as_deref(), Some(&b"old-content"[..]))
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(fs.read_all("/f~").unwrap(), b"old-content");
        assert_eq!(fs.read_all("/f").unwrap(), b"new-content");
    }

    #[test]
    fn rename_to_self_is_noop() {
        let mut fs = fs_with_file("/a", b"x");
        fs.enable_event_log();
        fs.rename("/a", "/a").unwrap();
        assert!(fs.drain_events().is_empty());
    }

    #[test]
    fn rename_missing_src_fails() {
        let mut fs = Vfs::new();
        assert!(matches!(
            fs.rename("/nope", "/x"),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn link_shares_content_and_unlink_keeps_other_name() {
        let mut fs = fs_with_file("/f", b"data");
        fs.link("/f", "/f~").unwrap();
        assert_eq!(fs.metadata("/f").unwrap().nlink, 2);
        fs.write("/f", 0, b"DATA").unwrap();
        assert_eq!(fs.read_all("/f~").unwrap(), b"DATA");
        fs.enable_event_log();
        fs.unlink("/f").unwrap();
        match &fs.drain_events()[0] {
            OpEvent::Unlink { removed, .. } => assert!(removed.is_none()),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(fs.read_all("/f~").unwrap(), b"DATA");
        fs.enable_event_log();
        fs.unlink("/f~").unwrap();
        match &fs.drain_events()[0] {
            OpEvent::Unlink { removed, .. } => {
                assert_eq!(removed.as_deref(), Some(&b"DATA"[..]))
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn directories_nest_and_rmdir_requires_empty() {
        let mut fs = Vfs::new();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.create("/a/b/c/file").unwrap();
        assert!(matches!(fs.rmdir("/a/b/c"), Err(VfsError::NotEmpty(_))));
        fs.unlink("/a/b/c/file").unwrap();
        fs.rmdir("/a/b/c").unwrap();
        assert!(!fs.exists("/a/b/c"));
        assert!(fs.exists("/a/b"));
    }

    #[test]
    fn readdir_sorted_with_kinds() {
        let mut fs = Vfs::new();
        fs.mkdir("/d").unwrap();
        fs.create("/b").unwrap();
        fs.create("/a").unwrap();
        let names: Vec<_> = fs
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| (e.name, e.kind))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a".to_string(), FileKind::File),
                ("b".to_string(), FileKind::File),
                ("d".to_string(), FileKind::Directory)
            ]
        );
    }

    #[test]
    fn walk_files_recurses() {
        let mut fs = Vfs::new();
        fs.mkdir_all("/x/y").unwrap();
        fs.create("/x/y/f1").unwrap();
        fs.create("/x/f2").unwrap();
        let files: Vec<String> = fs
            .walk_files("/")
            .unwrap()
            .into_iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(files, vec!["/x/f2".to_string(), "/x/y/f1".to_string()]);
    }

    #[test]
    fn capacity_limit_enforced_and_released() {
        let mut fs = Vfs::with_capacity(10);
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"0123456789").unwrap();
        assert!(matches!(fs.write("/a", 10, b"x"), Err(VfsError::NoSpace)));
        // Overwrites of existing bytes are fine.
        fs.write("/a", 0, b"abcdefghij").unwrap();
        fs.truncate("/a", 4).unwrap();
        fs.write("/a", 4, b"12345").unwrap();
        assert_eq!(fs.used, 9);
        fs.unlink("/a").unwrap();
        assert_eq!(fs.used, 0);
    }

    #[test]
    fn handles_emit_close_on_last_release() {
        let mut fs = fs_with_file("/a", b"x");
        fs.enable_event_log();
        let h1 = fs.open("/a").unwrap();
        let h2 = fs.open("/a").unwrap();
        fs.close(h1).unwrap();
        assert!(fs.drain_events().is_empty());
        fs.close(h2).unwrap();
        let events = fs.drain_events();
        assert!(matches!(events[0], OpEvent::Close { .. }));
        assert!(matches!(fs.close(h2), Err(VfsError::BadHandle(_))));
    }

    #[test]
    fn observer_sees_all_mutations() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut fs = Vfs::new();
        fs.set_observer(Box::new(move |e: &OpEvent| {
            sink.borrow_mut().push(e.clone())
        }));
        fs.enable_event_log();
        fs.create("/a").unwrap();
        fs.write("/a", 0, b"abc").unwrap();
        fs.write("/a", 1, b"xyz").unwrap();
        fs.truncate("/a", 2).unwrap();
        fs.rename("/a", "/b").unwrap();
        fs.unlink("/b").unwrap();
        let logged = fs.drain_events();
        let kinds: Vec<_> = logged.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            ["create", "write", "write", "truncate", "rename", "unlink"]
        );
        assert_eq!(*seen.borrow(), logged, "the observer sees the log");
    }

    #[test]
    fn paused_event_log_keeps_what_it_held_and_logs_nothing_new() {
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/mine").unwrap();
        assert!(fs.has_events());
        {
            let mut paused = fs.pause_event_log();
            paused.create("/theirs").unwrap();
            paused.write("/theirs", 0, b"remote").unwrap();
            paused.truncate("/theirs", 3).unwrap();
            assert!(!paused.has_events());
        }
        assert_eq!(fs.peek_all("/theirs").unwrap(), b"rem");
        assert_eq!(fs.used, 3);
        let kinds: Vec<_> = fs.drain_events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["create"], "only the local edit is logged");
        assert!(!fs.has_events());
        // The log is live again after the pause.
        fs.unlink("/theirs").unwrap();
        assert!(fs.has_events());
    }

    #[test]
    fn bit_flip_corrupts_silently() {
        let mut fs = fs_with_file("/a", b"\x00\x00");
        fs.enable_event_log();
        fs.inject_bit_flip("/a", 1, 0).unwrap();
        assert!(fs.drain_events().is_empty());
        assert_eq!(fs.read_all("/a").unwrap(), b"\x00\x01");
        assert!(fs.inject_bit_flip("/a", 9, 0).is_err());
    }

    #[test]
    fn torn_write_mutates_without_events() {
        let mut fs = fs_with_file("/a", b"aaaa");
        fs.enable_event_log();
        fs.inject_torn_write("/a", 2, b"ZZZZ").unwrap();
        assert!(fs.drain_events().is_empty());
        assert_eq!(fs.read_all("/a").unwrap(), b"aaZZZZ");
        assert_eq!(fs.used, 6);
    }

    #[test]
    fn peek_slice_borrows_the_stored_bytes() {
        let mut fs = fs_with_file("/a", b"abcdef");
        fs.reset_stats();
        let view = fs.peek_slice("/a").unwrap();
        assert_eq!(view, b"abcdef");
        // In place: a second borrow sees the same storage, and no IO was
        // counted.
        assert_eq!(view.as_ptr(), fs.peek_slice("/a").unwrap().as_ptr());
        assert_eq!(fs.stats().bytes_read, 0);
        assert!(matches!(fs.peek_slice("/nope"), Err(VfsError::NotFound(_))));
        fs.mkdir("/d").unwrap();
        assert!(matches!(
            fs.peek_slice("/d"),
            Err(VfsError::IsADirectory(_))
        ));
    }

    #[test]
    fn stats_track_bytes() {
        let mut fs = fs_with_file("/a", b"abcdef");
        fs.reset_stats();
        fs.read("/a", 0, 4).unwrap();
        fs.write("/a", 0, b"xy").unwrap();
        let s = fs.stats();
        assert_eq!(s.bytes_read, 4);
        assert_eq!(s.bytes_written, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn create_in_missing_dir_fails() {
        let mut fs = Vfs::new();
        assert!(matches!(
            fs.create("/no/such/file"),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn file_as_directory_component_fails() {
        let mut fs = fs_with_file("/a", b"x");
        assert!(matches!(fs.create("/a/b"), Err(VfsError::NotADirectory(_))));
    }

    #[test]
    fn unlink_directory_fails() {
        let mut fs = Vfs::new();
        fs.mkdir("/d").unwrap();
        assert!(matches!(fs.unlink("/d"), Err(VfsError::IsADirectory(_))));
    }

    #[test]
    fn rename_dir_into_itself_fails() {
        let mut fs = Vfs::new();
        fs.mkdir_all("/a/b").unwrap();
        assert!(fs.rename("/a", "/a/b/c").is_err());
    }
}
