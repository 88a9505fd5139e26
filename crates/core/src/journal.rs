//! Write-ahead journal record codec — the crash-durability companion of
//! [`crate::binary`].
//!
//! The serving layer appends every accepted mutation to a per-shard journal
//! file *before* applying it to the in-memory index; after a crash, the
//! journal tail is replayed over the last ERBF checkpoint. This module owns
//! the byte layout only — file handling (append, fsync, truncate) lives
//! with the caller:
//!
//! ```text
//! file   := header record*
//! header := magic(4 = "JRNL") version(u16) shard(u32) epoch(u64)
//! record := len(u32) body[len] checksum(u64)
//! body   := op(u8) id(u32) [row: len(u64) f32*len]
//! ```
//!
//! Everything is little-endian. `checksum` is FNV-1a 64 over the length
//! prefix *and* the body, so a flipped bit anywhere in a committed record —
//! including its length field — fails loudly with [`ErError::Corrupt`].
//! `epoch` ties the journal to the checkpoint it extends: replay is only
//! valid when the journal epoch equals the epoch stamped in the ERBF save
//! (see [`crate::binary::Container::epoch`]).
//!
//! **Commit rule.** A record is *committed* once all of its bytes are on
//! disk. [`parse_journal`] stops cleanly at a torn tail (a record whose
//! declared length overruns the file — the signature of a crash mid-append)
//! and returns everything before it; a record that is fully present but
//! fails its checksum is *corruption*, not a torn write, and surfaces as a
//! typed error so recovery never builds garbage state.

use crate::binary::{fnv1a64, BinReader, BinWriter};
use crate::{ErError, Result};

/// File magic: "JouRNaL".
pub(crate) const JOURNAL_MAGIC: [u8; 4] = *b"JRNL";
/// Journal layout version; bump on any incompatible change.
pub(crate) const JOURNAL_VERSION: u16 = 1;
/// Fixed header size in bytes (magic + version + shard + epoch).
pub const JOURNAL_HEADER_LEN: usize = 18;

const OP_INSERT: u8 = 1;
const OP_UPSERT: u8 = 2;
const OP_DELETE: u8 = 3;

/// One committed mutation. `id` is the caller's `EntityId` payload; the row
/// is carried verbatim so replay re-applies the exact float bits.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    Insert { id: u32, row: Vec<f32> },
    Upsert { id: u32, row: Vec<f32> },
    Delete { id: u32 },
}

impl JournalRecord {
    /// The entity the record touches.
    pub fn id(&self) -> u32 {
        match self {
            JournalRecord::Insert { id, .. }
            | JournalRecord::Upsert { id, .. }
            | JournalRecord::Delete { id } => *id,
        }
    }
}

/// The fixed prefix of a journal file: which shard it belongs to and which
/// checkpoint epoch it extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    pub shard: u32,
    pub epoch: u64,
}

/// Serialize a journal file header.
pub fn header_to_bytes(shard: u32, epoch: u64) -> [u8; JOURNAL_HEADER_LEN] {
    let mut out = [0u8; JOURNAL_HEADER_LEN];
    out[0..4].copy_from_slice(&JOURNAL_MAGIC);
    out[4..6].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    out[6..10].copy_from_slice(&shard.to_le_bytes());
    out[10..18].copy_from_slice(&epoch.to_le_bytes());
    out
}

/// Serialize one record: length prefix, body, checksum over both.
pub fn record_to_bytes(rec: &JournalRecord) -> Vec<u8> {
    let mut w = BinWriter::new();
    match rec {
        JournalRecord::Insert { id, row } => {
            w.put_u8(OP_INSERT);
            w.put_u32(*id);
            w.put_f32_slice(row);
        }
        JournalRecord::Upsert { id, row } => {
            w.put_u8(OP_UPSERT);
            w.put_u32(*id);
            w.put_f32_slice(row);
        }
        JournalRecord::Delete { id } => {
            w.put_u8(OP_DELETE);
            w.put_u32(*id);
        }
    }
    let body = w.into_bytes();
    let mut framed = Vec::with_capacity(4 + body.len() + 8);
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&body);
    let sum = fnv1a64(&framed);
    framed.extend_from_slice(&sum.to_le_bytes());
    framed
}

/// The decoded view of a journal file: its header (if any), the committed
/// record prefix, and the byte offset where that prefix ends — the caller
/// truncates to `committed_bytes` before appending again so a torn tail is
/// never extended.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// `None` when the file is shorter than a full header — the signature
    /// of a crash during journal creation; nothing was committed.
    pub header: Option<JournalHeader>,
    pub records: Vec<JournalRecord>,
    pub committed_bytes: usize,
}

/// Decode a journal file into its longest committed prefix.
///
/// Torn tails (truncated header, truncated final record) terminate the scan
/// cleanly; a *complete* record whose checksum or body does not decode is a
/// typed [`ErError::Corrupt`] — flipped bits never replay as garbage.
pub fn parse_journal(bytes: &[u8]) -> Result<JournalContents> {
    let Some(header) = bytes.get(..JOURNAL_HEADER_LEN) else {
        return Ok(JournalContents {
            header: None,
            records: Vec::new(),
            committed_bytes: 0,
        });
    };
    let mut h = BinReader::new(header);
    if h.get_array()? != JOURNAL_MAGIC {
        return Err(ErError::corrupt("bad magic (not a JRNL journal)"));
    }
    let version = h.get_u16()?;
    if version != JOURNAL_VERSION {
        return Err(ErError::corrupt(format!(
            "journal version {version} unsupported (expected {JOURNAL_VERSION})"
        )));
    }
    let header = JournalHeader {
        shard: h.get_u32()?,
        epoch: h.get_u64()?,
    };
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    while let Some(record) = committed_record(&bytes[pos..]) {
        let (summed, stored) = record.split_at(record.len() - 8);
        if fnv1a64(summed) != BinReader::new(stored).get_u64()? {
            return Err(ErError::corrupt(format!(
                "journal record checksum mismatch at offset {pos}"
            )));
        }
        records.push(
            record_from_body(&summed[4..])
                .map_err(|e| ErError::corrupt(format!("journal record at offset {pos}: {e}")))?,
        );
        pos += record.len();
    }
    Ok(JournalContents {
        header: Some(header),
        records,
        committed_bytes: pos,
    })
}

/// The record at the front of `rest` when its length prefix, body and
/// checksum are all on disk — JRNL's commit rule. Anything shorter is a
/// torn tail: `None` stops the scan without an error.
fn committed_record(rest: &[u8]) -> Option<&[u8]> {
    let len = BinReader::new(rest).get_u32().ok()? as usize;
    rest.get(..len.checked_add(12)?)
}

fn record_from_body(body: &[u8]) -> Result<JournalRecord> {
    let mut r = BinReader::new(body);
    let (op, id) = (r.get_u8()?, r.get_u32()?);
    let rec = match op {
        OP_INSERT => JournalRecord::Insert {
            id,
            row: r.get_f32_vec()?,
        },
        OP_UPSERT => JournalRecord::Upsert {
            id,
            row: r.get_f32_vec()?,
        },
        OP_DELETE => JournalRecord::Delete { id },
        other => return Err(ErError::corrupt(format!("unknown journal op {other}"))),
    };
    r.finish()?;
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Insert {
                id: 7,
                row: vec![1.0, -0.0, 2.5],
            },
            JournalRecord::Delete { id: 7 },
            JournalRecord::Upsert {
                id: 9,
                row: vec![f32::MIN_POSITIVE, -8.125, 4.0],
            },
        ]
    }

    fn sample_file() -> Vec<u8> {
        let mut file = header_to_bytes(3, 11).to_vec();
        for rec in sample_records() {
            file.extend_from_slice(&record_to_bytes(&rec));
        }
        file
    }

    #[test]
    fn records_round_trip_bit_for_bit() {
        let parsed = parse_journal(&sample_file()).unwrap();
        assert_eq!(
            parsed.header,
            Some(JournalHeader {
                shard: 3,
                epoch: 11
            })
        );
        assert_eq!(parsed.records, sample_records());
        assert_eq!(parsed.committed_bytes, sample_file().len());
        // Float payloads survive exactly, including -0.0.
        let JournalRecord::Insert { row, .. } = &parsed.records[0] else {
            panic!("first record must be an insert");
        };
        assert_eq!(row[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn truncation_at_any_byte_yields_a_committed_prefix() {
        let file = sample_file();
        // Find each record's end offset so we know the expected prefix.
        let mut ends = vec![JOURNAL_HEADER_LEN];
        for rec in sample_records() {
            ends.push(ends.last().unwrap() + record_to_bytes(&rec).len());
        }
        for cut in 0..file.len() {
            let parsed = parse_journal(&file[..cut]).unwrap();
            let expect_n = ends
                .iter()
                .filter(|&&e| e > JOURNAL_HEADER_LEN && e <= cut)
                .count();
            assert_eq!(
                parsed.records.len(),
                expect_n,
                "cut at {cut} must recover exactly the committed prefix"
            );
            assert_eq!(parsed.records, sample_records()[..expect_n].to_vec());
            if cut < JOURNAL_HEADER_LEN {
                assert!(parsed.header.is_none());
            } else {
                assert_eq!(parsed.committed_bytes, ends[expect_n]);
            }
        }
    }

    #[test]
    fn flipped_bits_in_committed_records_are_typed_corruption() {
        let file = sample_file();
        // Flip one bit in every byte of the record region (past the header).
        // Each flip must surface as ErError::Corrupt — never as a silently
        // different record, because the checksum covers len and body both.
        for pos in JOURNAL_HEADER_LEN..file.len() {
            let mut bad = file.clone();
            bad[pos] ^= 0x10;
            match parse_journal(&bad) {
                Err(ErError::Corrupt(_)) => {}
                Ok(parsed) => {
                    // A flip in a length prefix can masquerade as a torn
                    // tail; that is still a valid committed *prefix* (never
                    // garbage), and must have consumed fewer records.
                    assert!(
                        parsed.records.len() < sample_records().len(),
                        "flip at {pos} parsed all records without error"
                    );
                    let n = parsed.records.len();
                    assert_eq!(parsed.records, sample_records()[..n].to_vec());
                }
                Err(e) => panic!("flip at {pos} gave unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn header_corruption_is_rejected() {
        let mut bad_magic = sample_file();
        bad_magic[0] = b'X';
        assert!(matches!(
            parse_journal(&bad_magic),
            Err(ErError::Corrupt(_))
        ));
        let mut bad_version = sample_file();
        bad_version[4] = JOURNAL_VERSION as u8 + 1;
        assert!(matches!(
            parse_journal(&bad_version),
            Err(ErError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_and_header_only_files_are_clean() {
        let parsed = parse_journal(&[]).unwrap();
        assert!(parsed.header.is_none());
        assert!(parsed.records.is_empty());
        let parsed = parse_journal(&header_to_bytes(0, 5)).unwrap();
        assert_eq!(parsed.header, Some(JournalHeader { shard: 0, epoch: 5 }));
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.committed_bytes, JOURNAL_HEADER_LEN);
    }
}
