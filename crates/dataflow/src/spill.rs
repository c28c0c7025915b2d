//! On-disk spill tier shared by the shuffle service and the block manager.
//!
//! When resident cache + shuffle bytes cross the admission memory
//! watermark, cold blocks are *demoted*: their records are encoded with the
//! hand-rolled [`MemSize`](crate::MemSize) block codec and written to a
//! private temp directory, freeing their heap bytes while keeping them
//! fetchable. A later read *rehydrates* the block — reads the file back,
//! verifies the frame, decodes, and reinstates the records in memory —
//! instead of failing the fetch or recomputing lineage. The file stays as
//! the block's clean copy until the block itself goes, so a block is
//! written at most once however often it is demoted and read back.
//!
//! The store is deliberately primitive: one file per block, written whole
//! and read whole, so the per-chunk IO cost model used by the local-engine
//! baseline maps one-to-one onto real syscalls. Files carry the crate's
//! one [`frame`] so a torn or truncated write is detected on read rather
//! than decoded into garbage. Byte accounting is the
//! [`TieredStore`](crate::blockstore::TieredStore)'s job, not this one's.

use std::any::Any;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::{fs, io};

use crate::frame;
use crate::memsize::{decode_block, encode_records};
use crate::Data;

/// The only frame kind a spill file holds: one encoded block.
const KIND_BLOCK: u8 = 0;

/// Process-wide sequence so two stores in one process (many test
/// contexts) never share a directory.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A directory of spill files. Each [`write`](SpillStore::write) produces
/// one file named by a monotone id; [`read`](SpillStore::read) verifies
/// the frame before returning the payload. Dropping the store removes the
/// whole directory.
pub(crate) struct SpillStore {
    root: PathBuf,
    next_file: AtomicU64,
}

impl Default for SpillStore {
    fn default() -> Self {
        sweep_stale_spill_dirs();
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("spangle-spill-{}-{}", std::process::id(), seq));
        SpillStore {
            root,
            next_file: AtomicU64::new(0),
        }
    }
}

/// Best-effort removal of `spangle-spill-<pid>-<seq>` sibling directories
/// left behind by crashed processes (their `Drop` never ran). A dir is
/// stale when its embedded pid no longer exists; liveness is checked via
/// `/proc`, so on platforms without it nothing is removed. Own-process
/// dirs are always kept — a sibling store in this process may still be
/// live.
fn sweep_stale_spill_dirs() {
    let Ok(entries) = fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    if !std::path::Path::new("/proc/self").exists() {
        return;
    }
    let own = std::process::id();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("spangle-spill-") else {
            continue;
        };
        let Some((pid, _seq)) = rest.split_once('-') else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else {
            continue;
        };
        if pid == own || std::path::Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        let _ = fs::remove_dir_all(entry.path());
    }
}

impl SpillStore {
    /// Frame `payload` and write it as a new file: the header, then the
    /// payload from where it already is. Returns the file id and the
    /// on-disk length (framing included).
    pub(crate) fn write(&self, payload: &[u8]) -> io::Result<(u64, usize)> {
        // The directory is created lazily so contexts that never spill
        // leave no trace in the temp dir.
        fs::create_dir_all(&self.root)?;
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let mut file = fs::File::create(self.root.join(id.to_string()))?;
        file.write_all(&frame::header(KIND_BLOCK, payload))?;
        file.write_all(payload)?;
        Ok((id, frame::HEADER_LEN + payload.len()))
    }

    /// Read a spill file back, verifying its frame. Returns `None` when
    /// the file is missing, torn, corrupt, or longer than its frame. The
    /// payload buffer is sized once, from the file's own length.
    pub(crate) fn read(&self, id: u64) -> Option<Vec<u8>> {
        let mut file = fs::File::open(self.root.join(id.to_string())).ok()?;
        let on_disk = usize::try_from(file.metadata().ok()?.len()).ok()?;
        let (kind, payload) = frame::read(&mut file, on_disk).ok()?;
        let at_end = matches!(io::Read::read(&mut file, &mut [0u8]), Ok(0));
        (kind == KIND_BLOCK && at_end).then_some(payload)
    }

    /// Delete a spill file. Best-effort: a file already gone is not an
    /// error.
    pub(crate) fn remove(&self, id: u64) {
        let _ = fs::remove_file(self.root.join(id.to_string()));
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Type-erased encode/decode pair for one concrete `Vec<T>` block type.
///
/// The block stores hold payloads as `Arc<dyn Any>`, so by the time memory
/// pressure picks a victim the element type is gone. The codec is captured
/// at the deposit site — the only place `T` is still concrete — as a pair
/// of plain fn pointers, which keeps block entries `Copy`-cheap and avoids
/// boxing a closure per block.
#[derive(Clone, Copy)]
pub(crate) struct SpillCodec {
    encode: fn(&(dyn Any + Send + Sync), usize) -> Vec<u8>,
    decode: fn(&[u8]) -> Option<Arc<dyn Any + Send + Sync>>,
}

impl SpillCodec {
    /// The codec for `Vec<T>` blocks, or `None` when `T` opted out of
    /// spilling (no stable byte representation, e.g. `&'static str`).
    pub(crate) fn of<T: Data>() -> Option<SpillCodec> {
        fn encode<T: Data>(payload: &(dyn Any + Send + Sync), deep_size: usize) -> Vec<u8> {
            let records = payload
                .downcast_ref::<Vec<T>>()
                .expect("spill codec applied to a block of a different type");
            let mut out = Vec::with_capacity(deep_size + 8);
            encode_records(records, &mut out);
            out
        }
        fn decode<T: Data>(payload: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
            decode_block::<T>(payload).map(|records| Arc::new(records) as _)
        }
        if !T::spillable() {
            return None;
        }
        Some(SpillCodec {
            encode: encode::<T>,
            decode: decode::<T>,
        })
    }

    /// Encodes a block into one buffer sized up front from `deep_size`,
    /// the block's deep size, plus the count prefix. That covers every
    /// primitive and `(u64, Vec<(u32, f64)>)` block; a type whose encoding
    /// outgrows its deep size pays one growth.
    pub(crate) fn encode(&self, payload: &(dyn Any + Send + Sync), deep_size: usize) -> Vec<u8> {
        (self.encode)(payload, deep_size)
    }

    pub(crate) fn decode(&self, payload: &[u8]) -> Option<Arc<dyn Any + Send + Sync>> {
        (self.decode)(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemSize;

    impl SpillStore {
        /// Test hook: how many spill files exist right now.
        pub(crate) fn files(&self) -> usize {
            fs::read_dir(&self.root).map_or(0, |dir| dir.count())
        }

        /// Test hook: truncates every spill file by one byte, tearing it.
        pub(crate) fn tear_files(&self) {
            for entry in fs::read_dir(&self.root).unwrap() {
                let file = fs::OpenOptions::new()
                    .write(true)
                    .open(entry.unwrap().path())
                    .unwrap();
                file.set_len(file.metadata().unwrap().len() - 1).unwrap();
            }
        }
    }

    #[test]
    fn write_read_remove_roundtrip() {
        let store = SpillStore::default();
        let payload = vec![7u8; 100];
        let (id, disk_len) = store.write(&payload).unwrap();
        assert_eq!(disk_len, payload.len() + frame::HEADER_LEN);
        assert_eq!(store.read(id).as_deref(), Some(&payload[..]));
        store.remove(id);
        assert!(store.read(id).is_none());
    }

    #[test]
    fn corrupt_frames_read_as_none() {
        let store = SpillStore::default();
        let (id, _) = store.write(b"hello spill tier").unwrap();
        let path = store.root.join(id.to_string());
        let good = fs::read(&path).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut frame = good.clone();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());

        // Truncate mid-payload, or append past the frame: length mismatch.
        fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(store.read(id).is_none());
        frame = good.clone();
        frame.push(0);
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());

        // Wrong magic.
        frame = good;
        frame[0] = b'X';
        fs::write(&path, &frame).unwrap();
        assert!(store.read(id).is_none());
    }

    #[test]
    fn codec_roundtrips_pair_blocks() {
        let codec = SpillCodec::of::<(u64, f64)>().expect("pairs are spillable");
        let block: Vec<(u64, f64)> = (0..64).map(|i| (i, i as f64 * 0.5)).collect();
        let payload: Arc<dyn Any + Send + Sync> = Arc::new(block.clone());
        let bytes = codec.encode(payload.as_ref(), 0);
        let back = codec.decode(&bytes).expect("decode");
        assert_eq!(back.downcast_ref::<Vec<(u64, f64)>>().unwrap(), &block);
        // Truncated payloads are rejected, as are trailing bytes.
        assert!(codec.decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(codec.decode(&padded).is_none());
    }

    /// The encode buffer is sized once, from the block's deep size, which
    /// covers a `(u64, Vec<(u32, f64)>)` block's encoding; an encoding
    /// that outgrows the size it was given grows the buffer, no more.
    #[test]
    fn encode_reserves_its_buffer_once_from_the_deep_size() {
        let block: Vec<(u64, Vec<(u32, f64)>)> = (0..16)
            .map(|row| (row, (0..100).map(|i| (i, i as f64)).collect()))
            .collect();
        let deep_size = block.iter().map(MemSize::mem_size).sum();
        let payload: Arc<dyn Any + Send + Sync> = Arc::new(block);
        let codec = SpillCodec::of::<(u64, Vec<(u32, f64)>)>().expect("spillable");
        let bytes = codec.encode(payload.as_ref(), deep_size);
        assert!(bytes.len() <= bytes.capacity() && bytes.capacity() == deep_size + 8);
        assert!(codec.decode(&codec.encode(payload.as_ref(), 0)).is_some());
    }

    #[test]
    fn unspillable_types_have_no_codec() {
        assert!(SpillCodec::of::<&'static str>().is_none());
        assert!(SpillCodec::of::<(u64, &'static str)>().is_none());
    }

    #[test]
    fn stale_spill_dirs_of_dead_processes_are_swept() {
        if !std::path::Path::new("/proc/self").exists() {
            return; // liveness check needs procfs
        }
        let tmp = std::env::temp_dir();
        // Linux pids cap at 2^22, so this pid can never be alive.
        let stale = tmp.join("spangle-spill-999999999-0");
        let own = tmp.join(format!("spangle-spill-{}-999999", std::process::id()));
        fs::create_dir_all(&stale).unwrap();
        fs::write(stale.join("0"), b"leaked").unwrap();
        fs::create_dir_all(&own).unwrap();

        let _store = SpillStore::default();
        assert!(!stale.exists(), "dead process's spill dir must be removed");
        assert!(own.exists(), "own-process dirs are never swept");
        let _ = fs::remove_dir_all(&own);
    }

    #[test]
    fn dropping_the_store_removes_its_directory() {
        let store = SpillStore::default();
        store.write(b"ephemeral").unwrap();
        let root = store.root.clone();
        assert!(root.exists());
        drop(store);
        assert!(!root.exists());
    }
}
