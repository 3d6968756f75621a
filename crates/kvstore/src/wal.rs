//! Write-ahead log: crash safety for the memtable.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! [crc32 u32][payload_len u32][payload]
//! payload = [kind u8][key_len u32][key][value]     kind: 0 = put, 1 = delete
//! payload = [2u8][count u32][entry]*count          kind: 2 = batch
//! entry   = [kind u8][key_len u32][key]            kind: 1 = delete
//!         | [kind u8][key_len u32][key][val_len u32][value]   kind: 0 = put
//! ```
//!
//! The CRC covers the payload. On replay, a record whose CRC or framing is
//! wrong terminates the scan: everything before it is applied, the torn
//! tail is discarded — the standard contract for a log written by a
//! crashed process. A batch record is one payload under one CRC, so a
//! crash mid-batch discards the *entire* batch: replay sees all of its
//! entries or none of them.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::crc::crc32;
use crate::{BatchOp, Result};

/// A WAL record, as replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A key/value insertion.
    Put {
        /// The inserted key.
        key: Vec<u8>,
        /// The inserted value.
        value: Vec<u8>,
    },
    /// A key deletion (tombstone).
    Delete {
        /// The deleted key.
        key: Vec<u8>,
    },
}

/// An append-only writer for the WAL.
#[derive(Debug)]
pub struct WalWriter {
    file: BufWriter<File>,
}

impl WalWriter {
    /// Opens (creating or appending to) the WAL at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(WalWriter {
            file: BufWriter::new(file),
        })
    }

    /// Appends a record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let mut payload = Vec::new();
        match record {
            WalRecord::Put { key, value } => {
                payload.push(0u8);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key);
                payload.extend_from_slice(value);
            }
            WalRecord::Delete { key } => {
                payload.push(1u8);
                payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                payload.extend_from_slice(key);
            }
        }
        self.write_record(&payload)
    }

    /// Appends an entire batch as **one** record — one CRC over all the
    /// entries, one flush point — and flushes it to the OS.
    ///
    /// Replay applies the whole batch or (after a crash that tore the
    /// record) none of it.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn append_batch(&mut self, batch: &[BatchOp]) -> Result<()> {
        let mut payload = Vec::new();
        payload.push(2u8);
        payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for op in batch {
            match op {
                BatchOp::Put { key, value } => {
                    payload.push(0u8);
                    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                    payload.extend_from_slice(key);
                    payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    payload.extend_from_slice(value);
                }
                BatchOp::Delete { key } => {
                    payload.push(1u8);
                    payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
                    payload.extend_from_slice(key);
                }
            }
        }
        self.write_record(&payload)
    }

    fn write_record(&mut self, payload: &[u8]) -> Result<()> {
        self.file.write_all(&crc32(payload).to_le_bytes())?;
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.file.flush()?;
        Ok(())
    }
}

/// Replays all intact records from the WAL at `path`.
///
/// A missing file yields an empty vector. A torn or corrupt tail ends the
/// replay silently (the records before it are returned).
///
/// # Errors
///
/// Propagates file-system errors other than "not found".
pub fn replay(path: &Path) -> Result<Vec<WalRecord>> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= data.len() {
        let crc = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
        let start = pos + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= data.len() => e,
            _ => break, // torn tail
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            break; // torn or corrupt tail
        }
        match parse_payload(payload) {
            Some(mut recs) => out.append(&mut recs),
            None => break,
        }
        pos = end;
    }
    Ok(out)
}

/// Parses one record payload: a single put/delete, or a batch record that
/// flattens to its (atomically CRC-covered) entries.
fn parse_payload(payload: &[u8]) -> Option<Vec<WalRecord>> {
    let kind = *payload.first()?;
    match kind {
        0 | 1 => {
            let key_len = u32::from_le_bytes(payload.get(1..5)?.try_into().ok()?) as usize;
            let key = payload.get(5..5 + key_len)?.to_vec();
            Some(vec![if kind == 0 {
                WalRecord::Put {
                    key,
                    value: payload.get(5 + key_len..)?.to_vec(),
                }
            } else {
                WalRecord::Delete { key }
            }])
        }
        2 => {
            let count = u32::from_le_bytes(payload.get(1..5)?.try_into().ok()?) as usize;
            let mut recs = Vec::with_capacity(count);
            let mut pos = 5usize;
            for _ in 0..count {
                let kind = *payload.get(pos)?;
                let key_len =
                    u32::from_le_bytes(payload.get(pos + 1..pos + 5)?.try_into().ok()?) as usize;
                let key = payload.get(pos + 5..pos + 5 + key_len)?.to_vec();
                pos += 5 + key_len;
                match kind {
                    0 => {
                        let val_len =
                            u32::from_le_bytes(payload.get(pos..pos + 4)?.try_into().ok()?)
                                as usize;
                        let value = payload.get(pos + 4..pos + 4 + val_len)?.to_vec();
                        pos += 4 + val_len;
                        recs.push(WalRecord::Put { key, value });
                    }
                    1 => recs.push(WalRecord::Delete { key }),
                    _ => return None,
                }
            }
            // Trailing garbage means the record was not written by us.
            if pos != payload.len() {
                return None;
            }
            Some(recs)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("deltacfs-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal")
    }

    #[test]
    fn roundtrip_puts_and_deletes() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Put {
                key: b"k1".to_vec(),
                value: b"v1".to_vec(),
            })
            .unwrap();
            w.append(&WalRecord::Delete {
                key: b"k1".to_vec(),
            })
            .unwrap();
            w.append(&WalRecord::Put {
                key: b"k2".to_vec(),
                value: vec![],
            })
            .unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0],
            WalRecord::Put {
                key: b"k1".to_vec(),
                value: b"v1".to_vec()
            }
        );
        assert_eq!(
            records[1],
            WalRecord::Delete {
                key: b"k1".to_vec()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("missing").join("nope");
        assert!(replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
            w.append(&WalRecord::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            })
            .unwrap();
        }
        // Chop bytes off the end, simulating a crash mid-append.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_replays_flattened_in_order() {
        let path = tmp("batch");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append_batch(&[
                BatchOp::put(b"a".to_vec(), b"1".to_vec()),
                BatchOp::delete(b"b".to_vec()),
                BatchOp::put(b"c".to_vec(), vec![]),
            ])
            .unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(
            records,
            vec![
                WalRecord::Put {
                    key: b"a".to_vec(),
                    value: b"1".to_vec()
                },
                WalRecord::Delete { key: b"b".to_vec() },
                WalRecord::Put {
                    key: b"c".to_vec(),
                    value: vec![]
                },
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_batch_is_all_or_nothing() {
        let path = tmp("torn-batch");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&WalRecord::Put {
                key: b"before".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
            w.append_batch(&[
                BatchOp::put(b"x".to_vec(), b"1".to_vec()),
                BatchOp::put(b"y".to_vec(), b"2".to_vec()),
                BatchOp::put(b"z".to_vec(), b"3".to_vec()),
            ])
            .unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop anywhere inside the batch record: none of x/y/z may replay,
        // even though the intact prefix still holds complete entries.
        for cut in 1..40 {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let records = replay(&path).unwrap();
            assert_eq!(
                records,
                vec![WalRecord::Put {
                    key: b"before".to_vec(),
                    value: b"1".to_vec()
                }],
                "cut {cut} bytes leaked partial batch entries"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_batch_roundtrips() {
        let path = tmp("empty-batch");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append_batch(&[]).unwrap();
        }
        assert!(replay(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc");
        std::fs::remove_file(&path).ok();
        {
            let mut w = WalWriter::open(&path).unwrap();
            for i in 0..3u8 {
                w.append(&WalRecord::Put {
                    key: vec![i],
                    value: vec![i],
                })
                .unwrap();
            }
        }
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the second record. Record size: 8 header +
        // payload(1 kind + 4 keylen + 1 key + 1 value) = 15 bytes.
        data[15 + 9] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
