//! The APK container: manifest + (possibly packed) dex payload.

use crate::dex::Dex;
use crate::manifest::Manifest;
use crate::packer::{self, ParseDexError};
use std::fmt;
use std::sync::Arc;

/// The dex payload of an APK: plain or hidden by a packer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// An ordinary, directly-readable dex, shared with the analyses that
    /// read it.
    Plain(Arc<Dex>),
    /// A packed dex blob that must be recovered first (cf. DexHunter).
    Packed(Vec<u8>),
}

/// A simulated APK file.
///
/// # Examples
///
/// ```
/// use ppchecker_apk::{Apk, Dex, Manifest};
///
/// let manifest = Manifest::new("com.example.app");
/// let dex = Dex::builder().build();
/// let apk = Apk::new(manifest, dex);
/// assert!(!apk.is_packed());
/// assert!(apk.dex().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Apk {
    /// The parsed `AndroidManifest.xml`.
    pub manifest: Manifest,
    payload: Payload,
}

impl Apk {
    /// Creates an APK with a plain dex.
    pub fn new(manifest: Manifest, dex: Dex) -> Self {
        Apk { manifest, payload: Payload::Plain(Arc::new(dex)) }
    }

    /// Creates an APK whose dex is packed with `key` (as a packer would).
    pub fn new_packed(manifest: Manifest, dex: &Dex, key: u8) -> Self {
        Apk { manifest, payload: Payload::Packed(packer::pack(dex, key)) }
    }

    /// Creates an APK from a raw packed-dex blob *without* validating it.
    ///
    /// This is how on-disk `.pkdx` payloads enter the pipeline: the blob
    /// may be truncated or corrupt, in which case [`Apk::dex`] (and any
    /// analysis over it) reports the recovery failure. Batch runtimes
    /// rely on this to turn one bad app into one error record instead of
    /// a load-time abort.
    pub fn from_packed_blob(manifest: Manifest, blob: Vec<u8>) -> Self {
        Apk { manifest, payload: Payload::Packed(blob) }
    }

    /// Returns `true` if the dex is packed.
    pub fn is_packed(&self) -> bool {
        matches!(self.payload, Payload::Packed(_))
    }

    /// Returns the dex, recovering it with the unpacker if necessary.
    ///
    /// This mirrors the paper's flow: "If the app is packed, we use our
    /// unpacking tool DexHunter to recover the dex file." A plain dex is
    /// shared, not copied; a packed one is recovered into a fresh
    /// allocation. Callers that edit the dex clone it with
    /// `Dex::clone(&*apk.dex()?)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDexError`] if a packed payload cannot be recovered.
    pub fn dex(&self) -> Result<Arc<Dex>, ParseDexError> {
        match &self.payload {
            Payload::Plain(d) => Ok(Arc::clone(d)),
            Payload::Packed(blob) => packer::unpack(blob).map(Arc::new),
        }
    }

    /// Borrows the plain dex without unpacking; `None` when packed.
    pub fn plain_dex(&self) -> Option<&Dex> {
        match &self.payload {
            Payload::Plain(d) => Some(d),
            Payload::Packed(_) => None,
        }
    }

    /// A content hash of the whole APK — manifest text plus dex payload —
    /// stable across runs and platforms. This is the artifact store's
    /// per-app invalidation key: any change to permissions, components,
    /// or bytecode produces a different hash, so a stored report is only
    /// replayed for a byte-identical app.
    pub fn content_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::hash::FnvHasher::default();
        let manifest = self.manifest.to_text();
        h.write_u64(manifest.len() as u64);
        h.write(manifest.as_bytes());
        match &self.payload {
            Payload::Plain(d) => {
                h.write_u64(0);
                h.write_u64(d.stable_hash());
            }
            Payload::Packed(blob) => {
                h.write_u64(1);
                h.write_u64(blob.len() as u64);
                h.write(blob);
            }
        }
        h.finish()
    }
}

impl fmt::Display for Apk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Apk({}, {} permissions, {})",
            self.manifest.package,
            self.manifest.permissions.len(),
            if self.is_packed() { "packed" } else { "plain" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dex::Dex;

    fn dex() -> Dex {
        Dex::builder()
            .class("com.x.Main", |c| {
                c.method("onCreate", 1, |m| {
                    m.const_string(0, "hello");
                });
            })
            .build()
    }

    #[test]
    fn plain_apk_exposes_dex() {
        let apk = Apk::new(Manifest::new("com.x"), dex());
        assert!(!apk.is_packed());
        assert_eq!(*apk.dex().unwrap(), dex());
        assert!(apk.plain_dex().is_some());
    }

    #[test]
    fn packed_apk_recovers_dex() {
        let apk = Apk::new_packed(Manifest::new("com.x"), &dex(), 0x33);
        assert!(apk.is_packed());
        assert!(apk.plain_dex().is_none());
        assert_eq!(*apk.dex().unwrap(), dex());
    }

    #[test]
    fn content_hash_tracks_manifest_and_dex() {
        let base = Apk::new(Manifest::new("com.x"), dex());
        assert_eq!(base.content_hash(), Apk::new(Manifest::new("com.x"), dex()).content_hash());

        let mut perm = Manifest::new("com.x");
        perm.add_permission(crate::Permission::ReadContacts);
        assert_ne!(base.content_hash(), Apk::new(perm, dex()).content_hash());

        let other_dex = Dex::builder().class("com.x.Other", |_| {}).build();
        assert_ne!(base.content_hash(), Apk::new(Manifest::new("com.x"), other_dex).content_hash());

        // Packed and plain forms of the same app hash apart (the packed
        // payload is what the pipeline would actually re-analyze).
        let packed = Apk::new_packed(Manifest::new("com.x"), &dex(), 0x33);
        assert_ne!(base.content_hash(), packed.content_hash());
    }

    #[test]
    fn display_mentions_packing() {
        let apk = Apk::new_packed(Manifest::new("com.x"), &dex(), 1);
        assert!(apk.to_string().contains("packed"));
    }
}
