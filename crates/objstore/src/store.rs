//! The concurrent in-memory object namespace.

use crate::checksum::to_hex;
use bytes::Bytes;
use ioapi::checksum::crc32_adler32;
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Metadata + payload of one stored object.
#[derive(Debug, Clone)]
pub struct ObjectMeta {
    /// Object payload (cheaply cloneable).
    pub data: Bytes,
    /// CRC-32 of the payload.
    pub crc32: u32,
    /// Adler-32 of the payload.
    pub adler32: u32,
    /// Store-local modification counter (monotonic; stands in for mtime).
    pub version: u64,
    /// `ETag` and `Digest` header values, written when the object was
    /// stored: every GET sends them, none should format them.
    etag: Arc<str>,
    digest: Arc<str>,
}

impl ObjectMeta {
    fn new(data: Bytes, crc32: u32, adler32: u32, version: u64) -> Self {
        let etag = format!("\"{crc32:08x}-{version}\"").into();
        let digest = format!("adler32={}", to_hex(adler32)).into();
        ObjectMeta { data, crc32, adler32, version, etag, digest }
    }

    /// Weak ETag derived from content checksum and version.
    pub fn etag(&self) -> &str {
        &self.etag
    }

    /// `Digest` header value (RFC 3230): `adler32=<hex>`.
    pub fn digest(&self) -> &str {
        &self.digest
    }
}

/// A concurrent path → object map with directory semantics.
///
/// Paths are absolute, `/`-separated and stored verbatim (percent-decoding
/// happens in the HTTP handler). Directories exist implicitly above any
/// object, and explicitly when created via [`mkdir`](ObjectStore::mkdir).
#[derive(Debug, Default)]
pub struct ObjectStore {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    objects: BTreeMap<String, ObjectMeta>,
    dirs: BTreeSet<String>,
    version: u64,
}

/// `path` as the namespace keys it: one leading `/`, no trailing one. A
/// path that already reads so — every path of a request line — is lent, not
/// copied.
fn normalize(path: &str) -> Cow<'_, str> {
    let trimmed = path.trim_end_matches('/');
    match trimmed.starts_with('/') {
        true => Cow::Borrowed(trimmed),
        false => Cow::Owned(format!("/{trimmed}")),
    }
}

impl ObjectStore {
    /// Empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Insert or replace an object. Returns `true` when the object replaced
    /// an existing one.
    pub fn put(&self, path: &str, data: Bytes) -> bool {
        let digests = crc32_adler32(&data);
        self.put_digested(path, data, digests)
    }

    /// [`put`](ObjectStore::put) for a caller that already holds the
    /// payload's `(crc32, adler32)` — from [`crc32_adler32`], so the bytes
    /// were read once. The digests are taken before the namespace lock, and
    /// a replaced object is freed after it: readers of every other object
    /// wait for a version bump and a map insert, not for a checksum or a
    /// free.
    pub(crate) fn put_digested(&self, path: &str, data: Bytes, digests: (u32, u32)) -> bool {
        let path = normalize(path);
        let (crc32, adler32) = digests;
        let replaced = {
            let mut inner = self.inner.write();
            inner.version += 1;
            let meta = ObjectMeta::new(data, crc32, adler32, inner.version);
            inner.objects.insert(path.into_owned(), meta)
        };
        replaced.is_some()
    }

    /// Fetch an object (cheap clone: payload is `Bytes`).
    pub fn get(&self, path: &str) -> Option<ObjectMeta> {
        self.inner.read().objects.get(&*normalize(path)).cloned()
    }

    /// Remove an object. Returns `true` when something was removed. The
    /// object is freed after the namespace lock is released.
    pub fn delete(&self, path: &str) -> bool {
        let removed = self.inner.write().objects.remove(&*normalize(path));
        removed.is_some()
    }

    /// Whether `path` is an object.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.read().objects.contains_key(&*normalize(path))
    }

    /// Atomically rename an object (WebDAV MOVE). Returns
    /// `Some(replaced_destination)`, or `None` when the source is missing.
    /// Checksums and payload move unchanged; the version bumps so ETags on
    /// the destination change.
    pub fn rename(&self, from: &str, to: &str) -> Option<bool> {
        let from = normalize(from);
        let to = normalize(to);
        let replaced = {
            let mut inner = self.inner.write();
            let old = inner.objects.remove(&*from)?;
            inner.version += 1;
            let meta = ObjectMeta::new(old.data, old.crc32, old.adler32, inner.version);
            inner.objects.insert(to.into_owned(), meta)
        };
        Some(replaced.is_some())
    }

    /// Create an explicit directory. Returns `false` if it already existed
    /// (explicitly or implicitly).
    pub fn mkdir(&self, path: &str) -> bool {
        let path = normalize(path);
        if self.is_dir(&path) {
            return false;
        }
        self.inner.write().dirs.insert(path.into_owned())
    }

    /// Whether `path` is a directory (explicit or implied by a deeper object).
    pub fn is_dir(&self, path: &str) -> bool {
        let path = normalize(path);
        let inner = self.inner.read();
        if inner.dirs.contains(&*path) || path == "/" {
            return true;
        }
        let prefix = format!("{path}/");
        inner
            .objects
            .range(prefix.clone()..)
            .next()
            .map(|(k, _)| k.starts_with(&prefix))
            .unwrap_or(false)
            || inner
                .dirs
                .range(prefix.clone()..)
                .next()
                .map(|k| k.starts_with(&prefix))
                .unwrap_or(false)
    }

    /// Immediate children of a directory: `(name, is_dir, size)`.
    pub fn list(&self, path: &str) -> Vec<(String, bool, u64)> {
        let dir = normalize(path);
        let prefix = if dir == "/" { "/".to_string() } else { format!("{dir}/") };
        let inner = self.inner.read();
        let mut out: BTreeMap<String, (bool, u64)> = BTreeMap::new();
        for (k, v) in inner.objects.range(prefix.clone()..) {
            let Some(rest) = k.strip_prefix(&prefix) else { break };
            match rest.split_once('/') {
                Some((child, _)) => {
                    out.entry(child.to_string()).or_insert((true, 0));
                }
                None => {
                    out.insert(rest.to_string(), (false, v.data.len() as u64));
                }
            }
        }
        for k in inner.dirs.range(prefix.clone()..) {
            let Some(rest) = k.strip_prefix(&prefix) else { break };
            let child = rest.split('/').next().unwrap_or(rest);
            if !child.is_empty() {
                out.entry(child.to_string()).or_insert((true, 0));
            }
        }
        out.into_iter().map(|(name, (is_dir, size))| (name, is_dir, size)).collect()
    }

    /// Total number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.read().objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete_roundtrip() {
        let s = ObjectStore::new();
        assert!(!s.put("/a/b", Bytes::from_static(b"hello")));
        let m = s.get("/a/b").unwrap();
        assert_eq!(m.data.as_ref(), b"hello");
        assert_eq!(m.crc32, crate::checksum::crc32(b"hello"));
        assert!(s.put("/a/b", Bytes::from_static(b"world")), "replacement reported");
        assert!(s.delete("/a/b"));
        assert!(!s.delete("/a/b"));
        assert!(s.get("/a/b").is_none());
    }

    #[test]
    fn paths_are_normalized() {
        let s = ObjectStore::new();
        s.put("x/y", Bytes::from_static(b"1"));
        assert!(s.exists("/x/y"));
        assert!(s.exists("x/y"));
        assert!(s.exists("/x/y/"));
    }

    #[test]
    fn rename_moves_payload_and_checksums() {
        let s = ObjectStore::new();
        s.put("/src", Bytes::from_static(b"content"));
        let before = s.get("/src").unwrap();
        assert_eq!(s.rename("/src", "/dst"), Some(false), "fresh destination");
        assert!(!s.exists("/src"));
        let after = s.get("/dst").unwrap();
        assert_eq!(after.data, before.data);
        assert_eq!(after.crc32, before.crc32);
        assert_ne!(after.etag(), before.etag(), "version bump changes the ETag");
        // Overwrite reports replacement; missing source reports None.
        s.put("/other", Bytes::from_static(b"x"));
        assert_eq!(s.rename("/dst", "/other"), Some(true));
        assert_eq!(s.rename("/gone", "/y"), None);
    }

    #[test]
    fn etags_change_across_versions() {
        let s = ObjectStore::new();
        s.put("/f", Bytes::from_static(b"v1"));
        let e1 = s.get("/f").unwrap().etag().to_string();
        s.put("/f", Bytes::from_static(b"v2"));
        let e2 = s.get("/f").unwrap().etag().to_string();
        assert_ne!(e1, e2);
    }

    #[test]
    fn implicit_and_explicit_directories() {
        let s = ObjectStore::new();
        s.put("/data/run1/f.root", Bytes::from_static(b"x"));
        assert!(s.is_dir("/data"));
        assert!(s.is_dir("/data/run1"));
        assert!(!s.is_dir("/data/run1/f.root"));
        assert!(!s.is_dir("/nope"));
        assert!(s.mkdir("/empty"));
        assert!(s.is_dir("/empty"));
        assert!(!s.mkdir("/empty"), "second mkdir reports existing");
        assert!(s.is_dir("/"), "root always exists");
    }

    #[test]
    fn list_immediate_children_only() {
        let s = ObjectStore::new();
        s.put("/d/a.root", Bytes::from_static(b"aa"));
        s.put("/d/b/c.root", Bytes::from_static(b"c"));
        s.put("/d/b/d.root", Bytes::from_static(b"d"));
        s.mkdir("/d/empty");
        s.put("/other/x", Bytes::from_static(b"x"));
        let ls = s.list("/d");
        assert_eq!(
            ls,
            vec![
                ("a.root".to_string(), false, 2),
                ("b".to_string(), true, 0),
                ("empty".to_string(), true, 0),
            ]
        );
        let root = s.list("/");
        assert_eq!(root.iter().map(|(n, _, _)| n.as_str()).collect::<Vec<_>>(), vec!["d", "other"]);
    }
}
