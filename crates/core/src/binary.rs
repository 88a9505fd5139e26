//! Compact binary persistence: the one format for everything the system
//! persists. Model weights, indices and the `er-serve` Resolver are pure
//! float/integer payloads, where a text format would triple the size and
//! burn the load path on float parsing ([`crate::json`] is for configs and
//! reports). This module defines the one binary container every persisted
//! artifact (model zoo, index, resolver) shares:
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
//! `kind` names what the payload is (HNSW graph, resolver, …) so a file
//! saved as one artifact can never be loaded as another; `version` is
//! bumped on any layout change and old readers reject newer files.
//!
//! **Decoding is bounded.** [`BinReader`] is the only code that decides
//! whether a length, a shape or a section end is well formed: a count that
//! sizes a loop or an allocation is checked against the bytes left first
//! ([`BinReader::get_len`], [`BinReader::bound`]), a run whose length the
//! config implies must hold exactly that many items
//! ([`BinReader::get_matrix`] and the other exact-count reads), and every
//! section reader ends with [`BinReader::finish`], which rejects trailing
//! bytes. A [`Container`] hands its sections out in file order, so a
//! missing, extra, duplicated or reordered section is corrupt too. A
//! decode that succeeds therefore re-encodes to the bytes it was given.
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
pub(crate) const VERSION: u16 = 2;
/// Fixed header size in bytes (magic + version + kind + section_count +
/// epoch + payload_len + checksum).
pub const HEADER_LEN: usize = 36;

/// `kind` values of the artifacts persisted across the workspace. Kept in
/// one place so two crates can never claim the same kind byte.
pub mod kind {
    /// Reserved: no artifact writes this kind, and no other may take it.
    pub const MATRIX: u16 = 1;
    pub const EXACT_INDEX: u16 = 2;
    pub const HNSW_INDEX: u16 = 3;
    pub const LSH_INDEX: u16 = 4;
    pub const RESOLVER: u16 = 5;
    /// A pre-trained model zoo (`er_embed::ModelZoo`'s cache).
    pub const MODEL: u16 = 6;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over raw bytes (the byte twin of `er_text::ngram::fnv1a`,
/// which `er-core` cannot depend on).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The container checksum: FNV-1a over the epoch bytes, then the payload.
fn checksum(epoch: u64, payload: &[u8]) -> u64 {
    fnv1a64_extend(fnv1a64(&epoch.to_le_bytes()), payload)
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

    /// Length-prefixed run of fixed-width items.
    fn put_run<const W: usize>(&mut self, items: impl ExactSizeIterator<Item = [u8; W]>) {
        self.put_usize(items.len());
        self.buf.reserve(items.len() * W);
        for item in items {
            self.buf.extend_from_slice(&item);
        }
    }

    /// Length-prefixed f32 run — the bulk payload of matrices/hyperplanes.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_run(vs.iter().map(|v| v.to_le_bytes()));
    }

    /// Length-prefixed u32 run (adjacency lists, id maps).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_run(vs.iter().map(|v| v.to_le_bytes()));
    }

    /// Length-prefixed u64 run (LSH signatures).
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_run(vs.iter().map(|v| v.to_le_bytes()));
    }

    /// Length-prefixed i8 run (int8 quantization codes).
    pub(crate) fn put_i8_slice(&mut self, vs: &[i8]) {
        self.put_run(vs.iter().map(|v| v.to_le_bytes()));
    }

    /// Length-prefixed u8 run (PQ codes).
    pub(crate) fn put_u8_slice(&mut self, vs: &[u8]) {
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

/// Cursor over a header or section payload, and the only code that knows
/// the mechanical well-formedness rules (see the module docs). Every read
/// is bounds-checked and returns [`ErError::Corrupt`] rather than
/// panicking or allocating past the bytes present.
#[derive(Debug, Clone)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(ErError::corrupt(format!(
                "truncated payload: needed {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// `N` raw bytes — a magic number or a fixed-width scalar.
    pub(crate) fn get_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.get_array()?))
    }

    pub(crate) fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.get_array()?))
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.get_array()?))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.get_array()?))
    }

    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| ErError::corrupt(format!("{v} overflows a usize")))
    }

    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.get_array()?))
    }

    /// A `count` read elsewhere (a header field, a config) that sizes a
    /// loop or an allocation over this reader: each of its items takes at
    /// least `min_item_bytes`, so more than the bytes left can hold is
    /// rejected before anything is allocated.
    pub fn bound(&self, count: usize, min_item_bytes: usize) -> Result<usize> {
        if count
            .checked_mul(min_item_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(ErError::corrupt(format!(
                "{count} items of {min_item_bytes}+ bytes overrun the remaining {}",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// A u64 length prefix, checked like [`BinReader::bound`].
    pub fn get_len(&mut self, min_item_bytes: usize) -> Result<usize> {
        let len = self.get_usize()?;
        self.bound(len, min_item_bytes)
    }

    /// A u64 length (or shape) field that must equal `count`.
    pub fn expect_len(&mut self, count: usize) -> Result<()> {
        match self.get_u64()? {
            len if len == count as u64 => Ok(()),
            len => Err(ErError::corrupt(format!(
                "expected {count} items, found {len}"
            ))),
        }
    }

    /// `len` unprefixed `W`-byte items.
    fn run<const W: usize, T>(
        &mut self,
        len: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>> {
        let n = len.checked_mul(W).ok_or_else(|| {
            ErError::corrupt(format!("{len} items of {W} bytes overflow a length"))
        })?;
        let (items, _) = self.take(n)?.as_chunks::<W>();
        Ok(items.iter().map(|&item| decode(item)).collect())
    }

    /// A length-prefixed f32 run of any length.
    pub(crate) fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.get_len(4)?;
        self.run(len, f32::from_le_bytes)
    }

    /// A length-prefixed f32 run holding exactly `rows × cols` values.
    pub fn get_matrix(&mut self, rows: usize, cols: usize) -> Result<Vec<f32>> {
        let count = rows
            .checked_mul(cols)
            .ok_or_else(|| ErError::corrupt(format!("a {rows}x{cols} matrix overflows")))?;
        self.expect_len(count)?;
        self.run(count, f32::from_le_bytes)
    }

    /// A length-prefixed u32 run of any length.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>> {
        let len = self.get_len(4)?;
        self.run(len, u32::from_le_bytes)
    }

    /// A length-prefixed u32 run of exactly `count` values.
    pub fn get_u32s(&mut self, count: usize) -> Result<Vec<u32>> {
        self.expect_len(count)?;
        self.run(count, u32::from_le_bytes)
    }

    /// A length-prefixed u64 run of exactly `count` values.
    pub fn get_u64s(&mut self, count: usize) -> Result<Vec<u64>> {
        self.expect_len(count)?;
        self.run(count, u64::from_le_bytes)
    }

    fn get_i8s(&mut self, count: usize) -> Result<Vec<i8>> {
        self.expect_len(count)?;
        self.run(count, i8::from_le_bytes)
    }

    fn get_u8s(&mut self, count: usize) -> Result<Vec<u8>> {
        self.expect_len(count)?;
        Ok(self.take(count)?.to_vec())
    }

    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ErError::corrupt("string section is not valid UTF-8"))
    }

    /// Length-prefixed raw bytes (a nested container).
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_len(1)?;
        self.take(len)
    }

    /// A bitmap of exactly `count` flags whose unused high bits in the
    /// last byte are zero, as [`BinWriter::put_bitmap`] writes them.
    pub fn get_bitmap(&mut self, count: usize) -> Result<Vec<bool>> {
        self.expect_len(count)?;
        let bytes = self.take(count.div_ceil(8))?;
        if let (Some(&last), used @ 1..) = (bytes.last(), count % 8) {
            if last >> used != 0 {
                return Err(ErError::corrupt("bitmap pad bits are set"));
            }
        }
        Ok((0..count)
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect())
    }

    /// End of a header or section: every byte must have been read.
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ErError::corrupt(format!(
                "{n} trailing bytes after offset {}",
                self.pos
            ))),
        }
    }
}

/// Assemble a complete file stamped with a journal epoch (`0` for
/// artifacts that never journal): checksummed header + the given
/// `(tag, bytes)` sections in order.
pub fn write_container(kind: u16, epoch: u64, sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let payload_len: usize = sections.iter().map(|(_, b)| 12 + b.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload_len as u64).to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    for (tag, bytes) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let sum = checksum(epoch, &out[HEADER_LEN..]);
    out[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    out
}

/// The fixed header. The checksum covers the epoch and the payload; the
/// other fields are validated on their own: magic and version by value,
/// `kind` against the caller's, `payload_len` against the bytes present
/// and `section_count` against the sections the payload holds.
struct Header {
    kind: u16,
    section_count: u32,
    epoch: u64,
    payload_len: usize,
    checksum: u64,
}

fn read_header(r: &mut BinReader) -> Result<Header> {
    if r.get_array()? != MAGIC {
        return Err(ErError::corrupt("bad magic (not an ERBF container)"));
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(ErError::corrupt(format!(
            "container version {version} unsupported (expected {VERSION})"
        )));
    }
    Ok(Header {
        kind: r.get_u16()?,
        section_count: r.get_u32()?,
        epoch: r.get_u64()?,
        payload_len: r.get_usize()?,
        checksum: r.get_u64()?,
    })
}

/// The `kind` of a container without validating its payload — how a loader
/// holding a nested blob (e.g. one resolver shard) dispatches to the right
/// index decoder.
pub fn peek_kind(bytes: &[u8]) -> Result<u16> {
    Ok(read_header(&mut BinReader::new(bytes))?.kind)
}

/// A validated container: its journal epoch and its `(tag, bytes)`
/// sections in file order. Decoders take the sections in that order with
/// [`Container::section`] and end with [`Container::finish`].
#[derive(Debug)]
pub struct Container<'a> {
    pub epoch: u64,
    pub sections: Vec<(u32, &'a [u8])>,
    next: usize,
}

impl<'a> Container<'a> {
    /// The next section, which must carry `tag`; `name` labels the error.
    pub fn section(&mut self, tag: u32, name: &str) -> Result<BinReader<'a>> {
        match self.sections.get(self.next) {
            Some(&(t, body)) if t == tag => {
                self.next += 1;
                Ok(BinReader::new(body))
            }
            found => Err(ErError::corrupt(format!(
                "expected section {name} (tag {tag}), found {:?}",
                found.map(|&(t, _)| t)
            ))),
        }
    }

    /// End of the container: every section must have been taken.
    pub fn finish(self) -> Result<()> {
        match self.sections.get(self.next) {
            None => Ok(()),
            Some(&(tag, _)) => Err(ErError::corrupt(format!(
                "unexpected section (tag {tag}) after the last one the decoder reads"
            ))),
        }
    }
}

/// Validate the header (magic, version, kind, length, checksum, section
/// count) and split the payload into its sections.
pub fn read_container(bytes: &[u8], expect_kind: u16) -> Result<Container<'_>> {
    let mut r = BinReader::new(bytes);
    let header = read_header(&mut r)?;
    if header.kind != expect_kind {
        return Err(ErError::corrupt(format!(
            "container holds kind {}, expected kind {expect_kind}",
            header.kind
        )));
    }
    let payload = r.take(header.payload_len)?;
    r.finish()?;
    if checksum(header.epoch, payload) != header.checksum {
        return Err(ErError::corrupt("payload checksum mismatch"));
    }
    let mut r = BinReader::new(payload);
    let count = r.bound(header.section_count as usize, 12)?;
    let sections = (0..count)
        .map(|_| Ok((r.get_u32()?, r.get_bytes()?)))
        .collect::<Result<_>>()?;
    r.finish()?;
    Ok(Container {
        epoch: header.epoch,
        sections,
        next: 0,
    })
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
/// via `EmbeddingMatrix::from_parts` (no `kernels::norm` calls).
pub fn matrix_from_reader(r: &mut BinReader) -> Result<EmbeddingMatrix> {
    let dim = r.get_usize()?;
    let data = r.get_f32_vec()?;
    let norms = r.get_matrix(data.len().checked_div(dim).unwrap_or(0), 1)?;
    EmbeddingMatrix::from_parts(dim, data, norms)
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

/// Inverse of [`quantized_to_writer`] for the companion of a `rows × dim`
/// f32 matrix: any other shape is [`ErError::Corrupt`].
pub fn quantized_from_reader(
    r: &mut BinReader,
    rows: usize,
    dim: usize,
) -> Result<QuantizedMatrix> {
    r.expect_len(dim)?;
    let codes = r.get_i8s(rows * dim)?;
    let scales = r.get_matrix(rows, 1)?;
    let zeros = r.get_matrix(rows, 1)?;
    QuantizedMatrix::from_parts(dim, codes, scales, zeros)
}

/// Serialize a PQ codebook: shape header + flat centroid floats verbatim.
pub fn codebook_to_writer(w: &mut BinWriter, book: &PqCodebook) {
    w.put_usize(book.dim());
    w.put_usize(book.subspaces());
    w.put_usize(book.centroids());
    w.put_f32_slice(book.data());
}

/// Inverse of [`codebook_to_writer`] for a codebook over `dim`-d rows.
pub fn codebook_from_reader(r: &mut BinReader, dim: usize) -> Result<PqCodebook> {
    r.expect_len(dim)?;
    let subspaces = r.get_usize()?;
    let centroids = r.get_usize()?;
    let data = r.get_matrix(centroids, dim)?;
    PqCodebook::from_parts(dim, subspaces, centroids, data)
}

/// Serialize PQ codes (one byte per subspace per row). Reconstructed-row
/// norms are recomputed from the codebook at load.
pub fn pq_codes_to_writer(w: &mut BinWriter, codes: &PqCodes) {
    w.put_u8_slice(codes.codes());
}

/// Inverse of [`pq_codes_to_writer`] for `rows` rows; out-of-range codes
/// are typed errors.
pub fn pq_codes_from_reader(r: &mut BinReader, book: &PqCodebook, rows: usize) -> Result<PqCodes> {
    let codes = r.get_u8s(rows * book.subspaces())?;
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
        assert_eq!(r.get_u64s(1).unwrap(), vec![u64::MAX]);
        assert_eq!(r.get_str().unwrap(), "golden palace");
        assert_eq!(
            r.get_bitmap(9).unwrap(),
            vec![true, false, false, true, true, false, true, true, true]
        );
        r.finish().unwrap();
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
        assert!(matches!(
            BinReader::new(&bytes).bound(1 << 40, 1),
            Err(ErError::Corrupt(_))
        ));
        assert!(matches!(
            BinReader::new(&bytes).get_matrix(usize::MAX, 2),
            Err(ErError::Corrupt(_))
        ));
    }

    #[test]
    fn exact_counts_pad_bits_and_trailing_bytes_are_checked() {
        let mut w = BinWriter::new();
        w.put_f32_slice(&[1.0; 6]);
        let bytes = w.into_bytes();
        assert_eq!(BinReader::new(&bytes).get_matrix(2, 3).unwrap().len(), 6);
        assert!(BinReader::new(&bytes).get_matrix(3, 3).is_err());
        assert!(BinReader::new(&bytes).get_u32s(5).is_err());
        let mut long = bytes.clone();
        long.push(0);
        let mut r = BinReader::new(&long);
        r.get_matrix(2, 3).unwrap();
        assert!(matches!(r.finish(), Err(ErError::Corrupt(_))));

        let mut w = BinWriter::new();
        w.put_bitmap(&[true; 3]);
        let mut bitmap = w.into_bytes();
        assert_eq!(BinReader::new(&bitmap).get_bitmap(3).unwrap(), [true; 3]);
        assert!(BinReader::new(&bitmap).get_bitmap(4).is_err());
        *bitmap.last_mut().unwrap() |= 0x80;
        assert!(matches!(
            BinReader::new(&bitmap).get_bitmap(3),
            Err(ErError::Corrupt(_))
        ));
    }

    #[test]
    fn container_round_trips_and_checks_integrity() {
        let sections = vec![(1u32, vec![1u8, 2, 3]), (7u32, vec![]), (2u32, vec![9u8])];
        let file = write_container(kind::EXACT_INDEX, 0, &sections);
        assert_eq!(peek_kind(&file).unwrap(), kind::EXACT_INDEX);
        let mut back = read_container(&file, kind::EXACT_INDEX).unwrap();
        assert_eq!(back.sections.len(), 3);
        assert_eq!(back.sections[0], (1, &[1u8, 2, 3][..]));
        assert_eq!(back.sections[1], (7, &[][..]));
        // Sections come out in file order only.
        assert!(matches!(back.section(2, "third"), Err(ErError::Corrupt(_))));
        back.section(1, "first").unwrap().get_u8().unwrap();
        back.section(7, "second").unwrap().finish().unwrap();
        assert_eq!(back.section(2, "third").unwrap().get_u8().unwrap(), 9);
        back.finish().unwrap();
        // A section left unread is an error at the end.
        let unread = read_container(&file, kind::EXACT_INDEX).unwrap();
        assert!(matches!(unread.finish(), Err(ErError::Corrupt(_))));

        // Wrong kind, wrong magic, flipped payload bit, truncation, a
        // trailing byte: all typed.
        assert!(matches!(
            read_container(&file, kind::HNSW_INDEX),
            Err(ErError::Corrupt(_))
        ));
        let mut bad_magic = file.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_container(&bad_magic, kind::EXACT_INDEX),
            Err(ErError::Corrupt(_))
        ));
        let mut flipped = file.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_container(&flipped, kind::EXACT_INDEX),
            Err(ErError::Corrupt(_))
        ));
        for cut in 0..file.len() {
            assert!(
                matches!(
                    read_container(&file[..cut], kind::EXACT_INDEX),
                    Err(ErError::Corrupt(_))
                ),
                "truncation at {cut} must fail"
            );
        }
        let mut long = file.clone();
        long.push(0);
        assert!(read_container(&long, kind::EXACT_INDEX).is_err());
    }

    /// `section_count` is outside the checksum: any other value than the
    /// true one — including one that would size a huge allocation — is a
    /// typed error.
    #[test]
    fn every_section_count_but_the_true_one_is_rejected() {
        let file = write_container(kind::RESOLVER, 3, &[(1, vec![5u8, 6]), (2, vec![])]);
        for bit in 0..32 {
            let mut bad = file.clone();
            bad[8 + bit / 8] ^= 1 << (bit % 8);
            assert!(matches!(
                read_container(&bad, kind::RESOLVER),
                Err(ErError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn epoch_round_trips() {
        let sections = vec![(1u32, vec![5u8, 6])];
        let stamped = write_container(kind::RESOLVER, 42, &sections);
        let back = read_container(&stamped, kind::RESOLVER).unwrap();
        assert_eq!(back.epoch, 42);
        assert_eq!(back.sections[0], (1, &[5u8, 6][..]));
        let plain = write_container(kind::RESOLVER, 0, &sections);
        assert_eq!(read_container(&plain, kind::RESOLVER).unwrap().epoch, 0);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut file = write_container(kind::EXACT_INDEX, 0, &[(1, vec![0u8])]);
        file[4] = VERSION as u8 + 1;
        assert!(matches!(
            read_container(&file, kind::EXACT_INDEX),
            Err(ErError::Corrupt(_))
        ));
        assert!(matches!(peek_kind(&file), Err(ErError::Corrupt(_))));
    }

    #[test]
    fn matrix_round_trip_is_bit_identical_without_renorming() {
        let round_trip = |m: &EmbeddingMatrix| {
            let mut w = BinWriter::new();
            matrix_to_writer(&mut w, m);
            let bytes = w.into_bytes();
            let mut r = BinReader::new(&bytes);
            let back = matrix_from_reader(&mut r).unwrap();
            r.finish().unwrap();
            back
        };
        let mut m = EmbeddingMatrix::new(3);
        m.push(&[1.0, -0.0, 2.5]);
        m.push(&[f32::MIN_POSITIVE, 4.0, -8.125]);
        let back = round_trip(&m);
        assert_eq!(back.dim(), 3);
        assert_eq!(back.len(), 2);
        for i in 0..2 {
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(m.norm(i).to_bits(), back.norm(i).to_bits());
        }
        // An empty matrix (dim preserved) survives too.
        let back = round_trip(&EmbeddingMatrix::new(48));
        assert_eq!(back.dim(), 48);
        assert!(back.is_empty());
    }
}
