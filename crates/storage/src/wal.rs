//! Write-ahead log: length-prefixed, CRC-checksummed binary records.
//!
//! File layout:
//!
//! ```text
//! [magic "RFVWAL1\n" 8B] [version u32] [base_lsn u64]      — header
//! [len u32] [crc32(payload) u32] [payload len bytes]  …    — records
//! ```
//!
//! Record `i` (0-based) in the file has LSN `base_lsn + i + 1`; the
//! *committed prefix* of a database is exactly the records whose length
//! prefix, checksum, and payload are fully on disk. Appends are
//! group-committed under one internal lock, with `fsync` per append a
//! choice of whoever opens the log (the engine takes it from `RFV_FSYNC`;
//! off by default: tests and benches exercise the full code path without
//! paying disk latency; production sets it for real durability).
//!
//! Reading tolerates — and physically truncates — a torn or corrupt
//! tail: the first record whose length/CRC/payload doesn't check out
//! marks the end of the committed prefix, everything after it is
//! discarded (`set_len`), and recovery proceeds from the valid prefix.
//! No panic, no invented data.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rfv_types::{Result, RfvError};

use crate::codec::crc32;
use crate::fault;

const MAGIC: &[u8; 8] = b"RFVWAL1\n";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8 + 4 + 8;
/// Upper bound on one record's payload — a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 1 << 30;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> RfvError {
    RfvError::execution(format!("wal: cannot {what} {}: {e}", path.display()))
}

/// Counters published by the WAL (mirrored into `rfv_stat_wal`).
#[derive(Debug, Default)]
pub struct WalStats {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub fsyncs: AtomicU64,
}

struct Inner {
    file: File,
    /// LSN of the last fully appended record.
    lsn: u64,
}

/// An append-only WAL handle positioned at the end of the valid prefix.
pub struct Wal {
    path: PathBuf,
    base_lsn: u64,
    /// Whether every append fsyncs before it is acknowledged.
    fsync: bool,
    inner: Mutex<Inner>,
    /// Mirror of `Inner::lsn` readable without the append lock.
    last_lsn: AtomicU64,
    pub stats: WalStats,
}

/// The result of scanning a WAL file: its base LSN, the payloads of the
/// committed prefix, and how many trailing bytes were cut as torn.
pub struct WalScan {
    pub base_lsn: u64,
    pub records: Vec<Vec<u8>>,
    pub truncated_bytes: u64,
}

impl Wal {
    /// Create a fresh WAL at `path` (truncating any existing file) with
    /// the given base LSN.
    pub fn create(path: &Path, base_lsn: u64, fsync: bool) -> Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .read(true)
            .open(path)
            .map_err(|e| io_err("create", path, e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&base_lsn.to_le_bytes());
        file.write_all(&header)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("initialize", path, e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            base_lsn,
            fsync,
            inner: Mutex::new(Inner {
                file,
                lsn: base_lsn,
            }),
            last_lsn: AtomicU64::new(base_lsn),
            stats: WalStats::default(),
        })
    }

    /// Scan the WAL at `path`, returning the committed prefix and
    /// **physically truncating** any torn/corrupt tail so later appends
    /// start from a clean end of file.
    pub fn scan(path: &Path) -> Result<WalScan> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("read", path, e))?;
        if buf.len() < HEADER_LEN as usize || &buf[..8] != MAGIC {
            return Err(RfvError::execution(format!(
                "wal: {} is not a WAL file (bad magic or truncated header)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        if version != VERSION {
            return Err(RfvError::execution(format!(
                "wal: {} has unsupported version {version}",
                path.display()
            )));
        }
        let mut lsn_bytes = [0u8; 8];
        lsn_bytes.copy_from_slice(&buf[12..20]);
        let base_lsn = u64::from_le_bytes(lsn_bytes);

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let valid_end = loop {
            if pos == buf.len() {
                break pos; // clean end
            }
            if buf.len() - pos < 8 {
                break pos; // torn length/crc prefix
            }
            let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
            if len > MAX_RECORD_LEN || buf.len() - pos - 8 < len as usize {
                break pos; // implausible length or torn payload
            }
            let payload = &buf[pos + 8..pos + 8 + len as usize];
            if crc32(payload) != crc {
                break pos; // corrupt payload (or torn overwrite)
            }
            records.push(payload.to_vec());
            pos += 8 + len as usize;
        };
        let truncated_bytes = (buf.len() - valid_end) as u64;
        if truncated_bytes > 0 {
            file.set_len(valid_end as u64)
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err("truncate torn tail of", path, e))?;
        }
        Ok(WalScan {
            base_lsn,
            records,
            truncated_bytes,
        })
    }

    /// Open an existing WAL for appending. The caller has usually just
    /// [`scan`](Self::scan)ed it (which truncates any torn tail);
    /// `committed` is the number of committed records the scan returned.
    pub fn open(path: &Path, base_lsn: u64, committed: u64, fsync: bool) -> Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", path, e))?;
        let lsn = base_lsn + committed;
        Ok(Wal {
            path: path.to_path_buf(),
            base_lsn,
            fsync,
            inner: Mutex::new(Inner { file, lsn }),
            last_lsn: AtomicU64::new(lsn),
            stats: WalStats::default(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// LSN of the most recently committed record.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::Acquire)
    }

    /// Append one record (group-committed: one lock, one write, one
    /// optional fsync). Returns the record's LSN.
    ///
    /// Under an armed [`fault`] kill-point this can write a *prefix* of
    /// the record and fail — exactly the torn tail recovery truncates.
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);

        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(budget) = fault::torn_budget("wal.append") {
            let cut = budget.min(rec.len());
            let _ = inner.file.write_all(&rec[..cut]);
            let _ = inner.file.sync_all();
            return Err(RfvError::execution(format!(
                "{} at wal.append ({cut} of {} bytes landed)",
                fault::CRASH_MARKER,
                rec.len()
            )));
        }
        fault::hit("wal.append")?;
        inner
            .file
            .write_all(&rec)
            .map_err(|e| io_err("append to", &self.path, e))?;
        fault::hit("wal.after_append")?;
        fault::hit("wal.before_fsync")?;
        if self.fsync {
            inner
                .file
                .sync_all()
                .map_err(|e| io_err("fsync", &self.path, e))?;
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        inner.lsn += 1;
        self.last_lsn.store(inner.lsn, Ordering::Release);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(rec.len() as u64, Ordering::Relaxed);
        Ok(inner.lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfv-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.rfl");
        let wal = Wal::create(&path, 0, true).unwrap();
        assert_eq!(wal.append(b"alpha").unwrap(), 1);
        assert_eq!(wal.append(b"").unwrap(), 2);
        assert_eq!(wal.append(b"gamma-gamma").unwrap(), 3);
        assert_eq!(
            wal.stats.fsyncs.load(Ordering::Relaxed),
            3,
            "one per append"
        );
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.base_lsn, 0);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-gamma".to_vec()]
        );
        // Re-open and keep appending: LSNs continue.
        let wal = Wal::open(&path, scan.base_lsn, scan.records.len() as u64, false).unwrap();
        assert_eq!(wal.append(b"delta").unwrap(), 4);
        assert_eq!(wal.stats.fsyncs.load(Ordering::Relaxed), 0);
        drop(wal);
        assert_eq!(Wal::scan(&path).unwrap().records.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_tails_truncate_cleanly() {
        let dir = tmp_dir("torn");
        for cut in 1..14usize {
            let path = dir.join(format!("wal-{cut}.rfl"));
            let wal = Wal::create(&path, 7, false).unwrap();
            wal.append(b"keep-me").unwrap();
            wal.append(b"torn").unwrap(); // 4 + 4 + 4 = 12 bytes on disk
            drop(wal);
            // Cut `cut` bytes off the tail: from nibbling the second
            // record to destroying it entirely.
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - cut as u64).unwrap();
            drop(f);
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(scan.base_lsn, 7);
            if let Some(first) = scan.records.first() {
                assert_eq!(first, &b"keep-me".to_vec());
            }
            if cut >= 12 {
                // The whole second record is gone — maybe bytes of the
                // first too, in which case only the header survives.
                assert!(scan.records.len() <= 1);
            } else {
                assert_eq!(scan.records.len(), 1, "cut {cut}");
                assert!(scan.truncated_bytes > 0);
            }
            // The truncation is physical: a second scan is clean.
            let rescan = Wal::scan(&path).unwrap();
            assert_eq!(rescan.truncated_bytes, 0, "cut {cut}");
            assert_eq!(rescan.records.len(), scan.records.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_in_payload_cuts_from_that_record() {
        let dir = tmp_dir("flip");
        let path = dir.join("wal.rfl");
        let wal = Wal::create(&path, 0, false).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        drop(wal);
        // Flip one byte inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = bytes.len() - 2;
        bytes[pos] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert!(scan.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_wal_file_rejected_without_panic() {
        let dir = tmp_dir("badmagic");
        let path = dir.join("not-a-wal");
        std::fs::write(&path, b"hello world, definitely not a wal").unwrap();
        assert!(Wal::scan(&path).is_err());
        std::fs::write(&path, b"x").unwrap();
        assert!(Wal::scan(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
