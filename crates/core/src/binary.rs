//! Compact binary persistence: the one format for everything the system
//! persists. Model weights, indices and the `er-serve` Resolver are pure
//! float/integer payloads, where a text format would triple the size and
//! burn the load path on float parsing ([`crate::json`] is for configs and
//! reports). This module defines the one binary container every persisted
//! artifact (model zoo, matrix, index, resolver) shares:
//!
//! ```text
//! file    := header payload
//! header  := magic(4 = "ERBF") version(u16) kind(u16)
//!            section_count(u32) epoch(u64) payload_len(u64) checksum(u64)
//! payload := section*
//! section := tag(u32) len(u64) bytes[len]
//! ```
//!
//! Everything is **little-endian**; `checksum` is FNV-1a 64 over the
//! epoch field followed by the raw payload bytes (the epoch drives replay
//! decisions, so it gets the same bit-flip protection as the data), so a
//! flipped bit anywhere in the file fails loudly with
//! [`ErError::Corrupt`] instead of reconstituting a silently wrong index.
//! `kind` names what the payload is (matrix, HNSW graph, resolver, …) so a
//! file saved as one artifact can never be loaded as another; `version` is
//! bumped on any layout change and old readers reject newer files.
//!
//! Loads are *reconstruction-free*: every derived quantity that is
//! expensive or float-sensitive (row norms, graph adjacency, LSH
//! hyperplanes and signatures) is stored verbatim and read back with
//! `f32::from_le_bytes`, bit-for-bit — a load never re-derives what the
//! build already computed (see [`matrix_from_reader`], which trusts the
//! stored norms instead of calling `kernels::norm` again).
//!
//! `epoch` is the **journal epoch**: a counter the serving layer bumps on
//! every checkpoint so a save file and the write-ahead journals beside it
//! (see [`crate::journal`]) compose deterministically — a journal tail is
//! replayed over a loaded container only when their epochs agree.
//! Artifacts that never journal write epoch `0`.

use crate::pq::{PqCodebook, PqCodes};
use crate::quant::QuantizedMatrix;
use crate::{EmbeddingMatrix, ErError, Result};

/// File magic: "ER Binary Format".
pub const MAGIC: [u8; 4] = *b"ERBF";
/// Container layout version; bump on any incompatible change.
/// Version 2 widened the header with the journal-epoch field.
pub const VERSION: u16 = 2;
/// Fixed header size in bytes (magic + version + kind + section_count +
/// epoch + payload_len + checksum).
pub const HEADER_LEN: usize = 36;

/// `kind` values of the artifacts persisted across the workspace. Kept in
/// one place so two crates can never claim the same kind byte.
pub mod kind {
    pub const MATRIX: u16 = 1;
    pub const EXACT_INDEX: u16 = 2;
    pub const HNSW_INDEX: u16 = 3;
    pub const LSH_INDEX: u16 = 4;
    pub const RESOLVER: u16 = 5;
    /// A pre-trained model zoo (`er_embed::ModelZoo`'s cache).
    pub const MODEL: u16 = 6;
}

/// FNV-1a 64 over raw bytes (the byte twin of `er_text::ngram::fnv1a`,
/// which `er-core` cannot depend on).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(what: impl std::fmt::Display) -> ErError {
    ErError::Corrupt(what.to_string())
}

/// Append-only little-endian byte writer for one section payload.
#[derive(Debug, Default, Clone)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    pub fn new() -> BinWriter {
        BinWriter::default()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed f32 run — the bulk payload of matrices/hyperplanes.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        self.buf.reserve(vs.len() * 4);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed u32 run (adjacency lists, id maps).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        self.buf.reserve(vs.len() * 4);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed u64 run (LSH signatures).
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        self.buf.reserve(vs.len() * 8);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed i8 run (int8 quantization codes).
    pub fn put_i8_slice(&mut self, vs: &[i8]) {
        self.put_usize(vs.len());
        self.buf.extend(vs.iter().map(|&v| v as u8));
    }

    /// Length-prefixed u8 run (PQ codes).
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_usize(vs.len());
        self.buf.extend_from_slice(vs);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw bytes (nested containers).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// One bit per flag, packed 8-per-byte (tombstone maps).
    pub fn put_bitmap(&mut self, flags: &[bool]) {
        self.put_usize(flags.len());
        for chunk in flags.chunks(8) {
            let mut byte = 0u8;
            for (i, &f) in chunk.iter().enumerate() {
                if f {
                    byte |= 1 << i;
                }
            }
            self.buf.push(byte);
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a section payload; every read is bounds-checked and returns
/// [`ErError::Corrupt`] on truncation rather than panicking.
#[derive(Debug, Clone)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated payload: needed {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u64 length that must also fit the remaining buffer when each item
    /// occupies at least `item_bytes` — rejects hostile lengths before the
    /// allocation, not after.
    fn get_len(&mut self, item_bytes: usize) -> Result<usize> {
        let len = self.get_u64()? as usize;
        if len
            .checked_mul(item_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(corrupt(format!(
                "length {len} overruns the remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }

    pub fn get_usize(&mut self) -> Result<usize> {
        Ok(self.get_u64()? as usize)
    }

    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.get_len(4)?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let len = self.get_len(4)?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.get_len(8)?;
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    pub fn get_i8_vec(&mut self) -> Result<Vec<i8>> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        Ok(bytes.iter().map(|&b| b as i8).collect())
    }

    pub fn get_u8_vec(&mut self) -> Result<Vec<u8>> {
        let len = self.get_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string section is not valid UTF-8"))
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_len(1)?;
        self.take(len)
    }

    pub fn get_bitmap(&mut self) -> Result<Vec<bool>> {
        let len = self.get_len(0)?;
        let bytes = self.take(len.div_ceil(8))?;
        Ok((0..len)
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect())
    }
}

/// Assemble a complete file at epoch 0: checksummed header + the given
/// `(tag, bytes)` sections in order. Artifacts that never journal use this.
pub fn write_container(kind: u16, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    write_container_epoch(kind, 0, sections)
}

/// Assemble a complete file stamped with a journal epoch.
pub fn write_container_epoch(kind: u16, epoch: u64, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    for (tag, bytes) in sections {
        payload.extend_from_slice(&tag.to_le_bytes());
        payload.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        payload.extend_from_slice(bytes);
    }
    let mut summed = Vec::with_capacity(8 + payload.len());
    summed.extend_from_slice(&epoch.to_le_bytes());
    summed.extend_from_slice(&payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&summed).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The `kind` of a container without validating its payload — how a loader
/// holding a nested blob (e.g. one resolver shard) dispatches to the right
/// index decoder.
pub fn peek_kind(bytes: &[u8]) -> Result<u16> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "header needs {HEADER_LEN} bytes, got {}",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(corrupt("bad magic (not an ERBF container)"));
    }
    Ok(u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")))
}

/// Validate the header (magic, version, kind, length, checksum) and return
/// the payload sections as `(tag, bytes)` in file order, discarding the
/// journal epoch.
pub fn read_container(bytes: &[u8], expect_kind: u16) -> Result<Vec<(u32, &[u8])>> {
    read_container_epoch(bytes, expect_kind).map(|(_, sections)| sections)
}

/// The payload sections of a container as `(tag, bytes)` in file order.
pub type Sections<'a> = Vec<(u32, &'a [u8])>;

/// Validate the header (magic, version, kind, length, checksum) and return
/// the journal epoch plus the payload sections as `(tag, bytes)` in file
/// order.
pub fn read_container_epoch(bytes: &[u8], expect_kind: u16) -> Result<(u64, Sections<'_>)> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "header needs {HEADER_LEN} bytes, got {}",
            bytes.len()
        )));
    }
    if bytes[0..4] != MAGIC {
        return Err(corrupt("bad magic (not an ERBF container)"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(corrupt(format!(
            "container version {version} unsupported (expected {VERSION})"
        )));
    }
    let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
    if kind != expect_kind {
        return Err(corrupt(format!(
            "container holds kind {kind}, expected kind {expect_kind}"
        )));
    }
    let section_count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(corrupt(format!(
            "payload is {} bytes, header declares {payload_len}",
            payload.len()
        )));
    }
    let mut summed = Vec::with_capacity(8 + payload.len());
    summed.extend_from_slice(&epoch.to_le_bytes());
    summed.extend_from_slice(payload);
    if fnv1a64(&summed) != checksum {
        return Err(corrupt("payload checksum mismatch"));
    }
    let mut sections = Vec::with_capacity(section_count);
    let mut reader = BinReader::new(payload);
    for _ in 0..section_count {
        let tag = reader.get_u32()?;
        let bytes = reader.get_bytes()?;
        sections.push((tag, bytes));
    }
    if reader.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the last section",
            reader.remaining()
        )));
    }
    Ok((epoch, sections))
}

/// The section of a container with the given tag, or a typed error naming
/// what is missing.
pub fn section<'a>(sections: &[(u32, &'a [u8])], tag: u32, name: &str) -> Result<&'a [u8]> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, b)| *b)
        .ok_or_else(|| corrupt(format!("missing section {name} (tag {tag})")))
}

/// Serialize a matrix: dim, flat row-major floats, and the *cached norms*
/// verbatim — the load path must never recompute them.
pub fn matrix_to_writer(w: &mut BinWriter, m: &EmbeddingMatrix) {
    w.put_usize(m.dim());
    w.put_f32_slice(m.data());
    w.put_f32_slice(m.norms());
}

/// Deserialize a matrix written by [`matrix_to_writer`]: one pass over the
/// byte buffer straight into the final buffers, norms trusted bit-for-bit
/// via [`EmbeddingMatrix::from_parts`] (no `kernels::norm` calls).
pub fn matrix_from_reader(r: &mut BinReader) -> Result<EmbeddingMatrix> {
    let dim = r.get_usize()?;
    let data = r.get_f32_vec()?;
    let norms = r.get_f32_vec()?;
    EmbeddingMatrix::from_parts(dim, data, norms)
}

/// Convenience: a standalone `kind::MATRIX` container.
pub fn matrix_to_bytes(m: &EmbeddingMatrix) -> Vec<u8> {
    let mut w = BinWriter::new();
    matrix_to_writer(&mut w, m);
    write_container(kind::MATRIX, &[(1, w.into_bytes())])
}

/// Inverse of [`matrix_to_bytes`].
pub fn matrix_from_bytes(bytes: &[u8]) -> Result<EmbeddingMatrix> {
    let sections = read_container(bytes, kind::MATRIX)?;
    let body = section(&sections, 1, "matrix")?;
    matrix_from_reader(&mut BinReader::new(body))
}

/// Serialize an int8-quantized matrix: dim, codes, and the per-row affine
/// maps. The derived statistics (code sums, dequantized norms) are
/// deterministic functions of the codes and are recomputed at load — unlike
/// f32 row norms there is no rounding freedom to preserve.
pub fn quantized_to_writer(w: &mut BinWriter, q: &QuantizedMatrix) {
    w.put_usize(q.dim());
    w.put_i8_slice(q.codes());
    w.put_f32_slice(q.scales());
    w.put_f32_slice(q.zeros());
}

/// Inverse of [`quantized_to_writer`]; shape mismatches surface as typed
/// [`ErError::Parse`] from `QuantizedMatrix::from_parts`.
pub fn quantized_from_reader(r: &mut BinReader) -> Result<QuantizedMatrix> {
    let dim = r.get_usize()?;
    let codes = r.get_i8_vec()?;
    let scales = r.get_f32_vec()?;
    let zeros = r.get_f32_vec()?;
    QuantizedMatrix::from_parts(dim, codes, scales, zeros)
}

/// Serialize a PQ codebook: shape header + flat centroid floats verbatim.
pub fn codebook_to_writer(w: &mut BinWriter, book: &PqCodebook) {
    w.put_usize(book.dim());
    w.put_usize(book.subspaces());
    w.put_usize(book.centroids());
    w.put_f32_slice(book.data());
}

/// Inverse of [`codebook_to_writer`].
pub fn codebook_from_reader(r: &mut BinReader) -> Result<PqCodebook> {
    let dim = r.get_usize()?;
    let subspaces = r.get_usize()?;
    let centroids = r.get_usize()?;
    let data = r.get_f32_vec()?;
    PqCodebook::from_parts(dim, subspaces, centroids, data)
}

/// Serialize PQ codes (one byte per subspace per row). Reconstructed-row
/// norms are recomputed from the codebook at load.
pub fn pq_codes_to_writer(w: &mut BinWriter, codes: &PqCodes) {
    w.put_u8_slice(codes.codes());
}

/// Inverse of [`pq_codes_to_writer`]; out-of-range codes are typed errors.
pub fn pq_codes_from_reader(r: &mut BinReader, book: &PqCodebook) -> Result<PqCodes> {
    let codes = r.get_u8_vec()?;
    PqCodes::from_parts(book, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_slice_round_trips() {
        let mut w = BinWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f32_slice(&[1.5, f32::MIN_POSITIVE, -3.25]);
        w.put_u32_slice(&[0, 42]);
        w.put_u64_slice(&[u64::MAX]);
        w.put_str("golden palace");
        w.put_bitmap(&[true, false, false, true, true, false, true, true, true]);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let fs = r.get_f32_vec().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[1].to_bits(), f32::MIN_POSITIVE.to_bits());
        assert_eq!(r.get_u32_vec().unwrap(), vec![0, 42]);
        assert_eq!(r.get_u64_vec().unwrap(), vec![u64::MAX]);
        assert_eq!(r.get_str().unwrap(), "golden palace");
        assert_eq!(
            r.get_bitmap().unwrap(),
            vec![true, false, false, true, true, false, true, true, true]
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = BinWriter::new();
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        // Chop the buffer mid-slice: every prefix must fail cleanly.
        for cut in 0..bytes.len() - 1 {
            let mut r = BinReader::new(&bytes[..cut]);
            assert!(
                matches!(r.get_f32_vec(), Err(ErError::Corrupt(_))),
                "cut at {cut} did not fail as Corrupt"
            );
        }
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        let mut w = BinWriter::new();
        w.put_u64(u64::MAX); // declares ~1.8e19 items
        let bytes = w.into_bytes();
        assert!(matches!(
            BinReader::new(&bytes).get_f32_vec(),
            Err(ErError::Corrupt(_))
        ));
        assert!(matches!(
            BinReader::new(&bytes).get_str(),
            Err(ErError::Corrupt(_))
        ));
    }

    #[test]
    fn container_round_trips_and_checks_integrity() {
        let sections = vec![(1u32, vec![1u8, 2, 3]), (7u32, vec![]), (2u32, vec![9u8])];
        let file = write_container(kind::MATRIX, &sections);
        assert_eq!(peek_kind(&file).unwrap(), kind::MATRIX);
        let back = read_container(&file, kind::MATRIX).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], (1, &[1u8, 2, 3][..]));
        assert_eq!(back[1], (7, &[][..]));
        assert_eq!(section(&back, 2, "third").unwrap(), &[9u8][..]);
        assert!(matches!(
            section(&back, 99, "nope"),
            Err(ErError::Corrupt(_))
        ));

        // Wrong kind, wrong magic, flipped payload bit, truncation: all typed.
        assert!(matches!(
            read_container(&file, kind::HNSW_INDEX),
            Err(ErError::Corrupt(_))
        ));
        let mut bad_magic = file.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_container(&bad_magic, kind::MATRIX),
            Err(ErError::Corrupt(_))
        ));
        let mut flipped = file.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_container(&flipped, kind::MATRIX),
            Err(ErError::Corrupt(_))
        ));
        for cut in 0..file.len() {
            assert!(
                matches!(
                    read_container(&file[..cut], kind::MATRIX),
                    Err(ErError::Corrupt(_))
                ),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn epoch_round_trips_and_defaults_to_zero() {
        let sections = vec![(1u32, vec![5u8, 6])];
        let stamped = write_container_epoch(kind::RESOLVER, 42, &sections);
        let (epoch, back) = read_container_epoch(&stamped, kind::RESOLVER).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(back[0], (1, &[5u8, 6][..]));
        // The epoch-less writer stamps 0, and the epoch-less reader accepts
        // any epoch (it only discards it).
        let plain = write_container(kind::RESOLVER, &sections);
        let (epoch, _) = read_container_epoch(&plain, kind::RESOLVER).unwrap();
        assert_eq!(epoch, 0);
        assert!(read_container(&stamped, kind::RESOLVER).is_ok());
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut file = write_container(kind::MATRIX, &[(1, vec![0u8])]);
        file[4] = VERSION as u8 + 1;
        assert!(matches!(
            read_container(&file, kind::MATRIX),
            Err(ErError::Corrupt(_))
        ));
    }

    #[test]
    fn matrix_round_trip_is_bit_identical_without_renorming() {
        let mut m = EmbeddingMatrix::new(3);
        m.push(&[1.0, -0.0, 2.5]);
        m.push(&[f32::MIN_POSITIVE, 4.0, -8.125]);
        let bytes = matrix_to_bytes(&m);
        let back = matrix_from_bytes(&bytes).unwrap();
        assert_eq!(back.dim(), 3);
        assert_eq!(back.len(), 2);
        for i in 0..2 {
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(m.norm(i).to_bits(), back.norm(i).to_bits());
        }
        // An empty matrix (dim preserved) survives too.
        let empty = EmbeddingMatrix::new(48);
        let back = matrix_from_bytes(&matrix_to_bytes(&empty)).unwrap();
        assert_eq!(back.dim(), 48);
        assert!(back.is_empty());
    }
}
