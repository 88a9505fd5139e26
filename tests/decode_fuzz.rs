//! Seeded mutation fuzzer over every persisted artifact: index containers
//! of each kind, resolver saves (Exact, HNSW, LSH), a JRNL journal and the
//! tiny-zoo cache.
//!
//! Each iteration damages one artifact — raw bit flips, truncations,
//! splices, duplicated sections or records, and edits made *behind* the
//! checksum: a length field inflated (to 2⁴⁰ among others), a bit flipped or
//! a byte appended inside a section, with every container level touched
//! re-sealed (nested shard containers included) and JRNL record checksums
//! recomputed — and decodes it. The decode must either succeed and
//! re-encode to exactly the bytes it was given (a journal to its committed
//! prefix), or fail with a typed `Corrupt` / `Model` error. It must never
//! panic, and the largest single allocation it requests must stay within
//! twice the input length plus 1 MiB; this binary installs a counting
//! global allocator to check that.
//!
//! Debug builds run a few hundred mutations per artifact, release builds
//! ten thousand: `cargo test --release --test decode_fuzz`.

use embeddings4er::core::binary::{self, BinReader, MAGIC};
use embeddings4er::core::journal::{
    header_to_bytes, parse_journal, record_to_bytes, JournalRecord, JOURNAL_HEADER_LEN,
};
use embeddings4er::core::rng::DetRng;
use embeddings4er::index::AnyIndex;
use embeddings4er::prelude::*;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

const ITERATIONS: usize = if cfg!(debug_assertions) { 300 } else { 10_000 };

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records the largest single request made by the current thread while it
/// is armed; every allocation is served by [`System`].
struct CountingAlloc;

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each inherits the caller's guarantees and `System`'s; `note` only reads
// and writes this thread's counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, valid per `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as in `dealloc`, and `new_size` is the caller's valid size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `decode` with allocation tracking armed on this thread.
fn armed<T>(decode: impl FnOnce() -> T) -> T {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            let _ = ARMED.try_with(|a| a.set(false));
        }
    }
    ARMED.with(|a| a.set(true));
    let _disarm = Disarm;
    decode()
}

/// Decode then re-encode: the re-encoding, and how many leading input
/// bytes it must reproduce.
type RoundTrip = Box<dyn Fn(&[u8]) -> Result<(Vec<u8>, usize)>>;

struct Artifact {
    name: String,
    bytes: Vec<u8>,
    /// The container tree, parsed once; `None` for the journal.
    sealed: Option<Sealed>,
    round_trip: RoundTrip,
}

impl Artifact {
    fn new(name: String, bytes: Vec<u8>, round_trip: RoundTrip) -> Artifact {
        let sealed = Sealed::parse(&bytes);
        Artifact {
            name,
            bytes,
            sealed,
            round_trip,
        }
    }
}

/// A container's `(tag, body)` sections, owned for editing.
type Sections = Vec<(u32, Vec<u8>)>;

/// A clean container: kind, epoch, sections, and the length-prefixed
/// containers nested in them (resolver shards) as `(section, start, end,
/// tree)`.
struct Sealed {
    kind: u16,
    epoch: u64,
    sections: Sections,
    nested: Vec<(usize, usize, usize, Sealed)>,
}

impl Sealed {
    fn parse(bytes: &[u8]) -> Option<Sealed> {
        let kind = binary::peek_kind(bytes).ok()?;
        let container = binary::read_container(bytes, kind).ok()?;
        let sections: Sections = container
            .sections
            .iter()
            .map(|&(tag, body)| (tag, body.to_vec()))
            .collect();
        let mut nested = Vec::new();
        for (s, (_, body)) in sections.iter().enumerate() {
            for start in 8..body.len().saturating_sub(3) {
                if body[start..start + 4] != MAGIC {
                    continue;
                }
                let len = BinReader::new(&body[start - 8..]).get_usize().unwrap_or(0);
                let end = start.saturating_add(len).min(body.len());
                if let Some(tree) = Sealed::parse(&body[start..end]) {
                    nested.push((s, start, end, tree));
                }
            }
        }
        Some(Sealed {
            kind,
            epoch: container.epoch,
            sections,
            nested,
        })
    }

    /// Re-seal after `edit` changed the section list — or, when `r` says
    /// so and there are nested containers, after one nested container was
    /// edited (and re-sealed) the same way. Every level touched gets a
    /// valid checksum, so the damage reaches the decoders behind it.
    fn edit(
        &self,
        r: &mut DetRng,
        edit: &mut dyn FnMut(&mut Sections, &mut DetRng) -> String,
    ) -> (Vec<u8>, String) {
        let mut sections = self.sections.clone();
        let what = if !self.nested.is_empty() && r.gen_bool(0.5) {
            let (s, start, end, tree) = &self.nested[r.gen_range(0..self.nested.len())];
            let (inner, what) = tree.edit(r, edit);
            let body = &mut sections[*s].1;
            body[start - 8..*start].copy_from_slice(&(inner.len() as u64).to_le_bytes());
            body.splice(start..end, inner);
            format!("section {s}, nested container at {start}: {what}")
        } else {
            edit(&mut sections, r)
        };
        let out = binary::write_container(self.kind, self.epoch, &sections);
        (out, format!("re-sealed: {what}"))
    }
}

/// The tiny zoo over a smaller corpus and bucket table: the same four
/// model sections and codec, a cache a few times smaller, so ten thousand
/// mutations of it stay cheap.
fn zoo() -> &'static ModelZoo {
    static ZOO: OnceLock<ModelZoo> = OnceLock::new();
    let config = ZooConfig {
        corpus_docs: 6,
        buckets: 64,
        ..ZooConfig::tiny()
    };
    ZOO.get_or_init(|| ModelZoo::pretrain(None, &config, 42))
}

fn fasttext() -> &'static dyn LanguageModel {
    zoo().get(ModelCode::FT).as_ref()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("er-decode-fuzz-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn index_artifacts() -> Vec<Artifact> {
    let mut r = rng(11);
    let flat: Vec<f32> = (0..37 * 8).map(|_| r.gen_range(-1.0..1.0)).collect();
    let matrix = EmbeddingMatrix::from_flat(8, flat).expect("matrix");
    let pq = Quantization::Pq {
        config: PqConfig {
            subspaces: 4,
            centroids: 8,
            iters: 3,
            seed: 5,
        },
        rerank: 6,
    };
    let exact = |quant| {
        let scan = ScanConfig {
            tier: KernelTier::Lanes,
            quant,
        };
        (BlockerBackend::Exact(Metric::Cosine), scan)
    };
    let setups = [
        ("exact", exact(Quantization::None)),
        ("exact_int8", exact(Quantization::Int8 { rerank: 6 })),
        ("exact_pq", exact(pq)),
        ("hnsw", (BlockerBackend::default(), ScanConfig::default())),
        (
            "lsh",
            (
                BlockerBackend::Lsh(LshConfig::default()),
                ScanConfig::default(),
            ),
        ),
    ];
    setups
        .into_iter()
        .map(|(name, (backend, scan))| {
            let mut index = AnyIndex::build(matrix.clone(), &backend, scan).expect("index");
            index.delete_row(3);
            Artifact::new(
                format!("index/{name}"),
                index.to_bytes(),
                Box::new(|bytes| {
                    let index = armed(|| AnyIndex::from_bytes(bytes))?;
                    Ok((index.to_bytes(), bytes.len()))
                }),
            )
        })
        .collect()
}

fn resolver_artifacts() -> Vec<Artifact> {
    let setups = [
        ("exact", BlockerBackend::Exact(Metric::Cosine)),
        ("hnsw", BlockerBackend::default()),
        ("lsh", BlockerBackend::Lsh(LshConfig::default())),
    ];
    setups
        .into_iter()
        .map(|(name, backend)| {
            let config = ServeConfig::new().shards(2).backend(backend);
            let mode = SerializationMode::SchemaAgnostic;
            let resolver = Resolver::new(fasttext(), mode, config).expect("resolver");
            for id in 0..16u32 {
                let text = format!("golden palace {id} main street");
                let entity = Entity::new(EntityId(id), vec![("name".into(), text)]);
                resolver.insert(&entity).expect("insert");
            }
            resolver.delete(EntityId(5)).expect("delete");
            Artifact::new(
                format!("resolver/{name}"),
                resolver.to_bytes(),
                Box::new(|bytes| {
                    let resolver = armed(|| Resolver::from_bytes(bytes, fasttext()))?;
                    Ok((resolver.to_bytes(), bytes.len()))
                }),
            )
        })
        .collect()
}

fn journal_artifact() -> Artifact {
    let mut r = rng(13);
    let mut bytes = header_to_bytes(1, 4).to_vec();
    for i in 0..12u32 {
        let row: Vec<f32> = (0..8).map(|_| r.gen_range(-1.0..1.0)).collect();
        let rec = match i % 3 {
            0 => JournalRecord::Insert { id: i, row },
            1 => JournalRecord::Upsert { id: i / 2, row },
            _ => JournalRecord::Delete { id: i / 3 },
        };
        bytes.extend_from_slice(&record_to_bytes(&rec));
    }
    Artifact::new(
        "journal".into(),
        bytes,
        Box::new(|bytes| {
            let parsed = armed(|| parse_journal(bytes))?;
            let mut out = match parsed.header {
                Some(h) => header_to_bytes(h.shard, h.epoch).to_vec(),
                None => Vec::new(),
            };
            for rec in &parsed.records {
                out.extend_from_slice(&record_to_bytes(rec));
            }
            Ok((out, parsed.committed_bytes))
        }),
    )
}

fn zoo_artifact() -> Artifact {
    let dir = scratch_dir("zoo");
    let saved = dir.join("saved.erbf");
    zoo().save(&saved).expect("save the zoo");
    let bytes = std::fs::read(&saved).expect("read the zoo");
    Artifact::new(
        "zoo".into(),
        bytes,
        Box::new(move |bytes| {
            let (input, output) = (dir.join("input.erbf"), dir.join("output.erbf"));
            std::fs::write(&input, bytes)?;
            let zoo = armed(|| ModelZoo::load(&input))?;
            zoo.save(&output)?;
            Ok((std::fs::read(&output)?, bytes.len()))
        }),
    )
}

/// One damaged copy of `artifact` and a description of the damage.
fn mutate(artifact: &Artifact, r: &mut DetRng) -> (Vec<u8>, String) {
    let mut b = artifact.bytes.clone();
    let len = b.len();
    match r.gen_range(0..8) {
        0 => {
            let flips = r.gen_range(1..4);
            for _ in 0..flips {
                let pos = r.gen_range(0..len);
                b[pos] ^= 1u8 << r.gen_range(0..8u32);
            }
            (b, format!("{flips} raw bit flips"))
        }
        1 => {
            let cut = r.gen_range(0..len);
            b.truncate(cut);
            (b, format!("truncated to {cut}"))
        }
        2 => {
            let n = r.gen_range(1..=len.min(64));
            let (src, dst) = (r.gen_range(0..=len - n), r.gen_range(0..=len - n));
            b.copy_within(src..src + n, dst);
            (b, format!("spliced {n} bytes {src} -> {dst}"))
        }
        3 => {
            let n = r.gen_range(1..=len.min(64));
            let src = r.gen_range(0..=len - n);
            let chunk = b[src..src + n].to_vec();
            let dst = r.gen_range(0..=len);
            b.splice(dst..dst, chunk);
            (b, format!("inserted {n} bytes from {src} at {dst}"))
        }
        4 => match &artifact.sealed {
            None => duplicate_record(b, r),
            Some(sealed) => sealed.edit(r, &mut |sections, r| {
                let i = r.gen_range(0..sections.len());
                let copy = sections[i].clone();
                sections.insert(i + r.gen_range(0..2usize), copy);
                format!("duplicated section {i}")
            }),
        },
        _ => match &artifact.sealed {
            None => edit_record(b, r),
            Some(sealed) => sealed.edit(r, &mut |sections, r| {
                let i = r.gen_range(0..sections.len());
                format!("section {i}: {}", edit_body(&mut sections[i].1, r))
            }),
        },
    }
}

/// Damage a section or record body the way a hostile writer would: inflate
/// or deflate a length-like u64, flip one bit, or append a byte.
fn edit_body(body: &mut Vec<u8>, r: &mut DetRng) -> String {
    match r.gen_range(0..4) {
        0 | 1 => {
            // Little-endian u64s that look like lengths or counts: high
            // half zero, value non-zero and within the body.
            let length_like = |w: &[u8]| {
                w[4..] == [0; 4]
                    && BinReader::new(w)
                        .get_u64()
                        .is_ok_and(|v| v > 0 && v <= body.len() as u64)
            };
            let candidates: Vec<usize> = (0..body.len().saturating_sub(7))
                .filter(|&p| length_like(&body[p..p + 8]))
                .collect();
            let Some(&p) = candidates.get(r.gen_range(0..candidates.len().max(1))) else {
                body.push(r.gen());
                return "a trailing byte".into();
            };
            let v = BinReader::new(&body[p..]).get_u64().unwrap_or(0);
            let new: u64 = [1 << 40, v + 1, v - 1, v * 2, 0, u64::MAX][r.gen_range(0..6usize)];
            body[p..p + 8].copy_from_slice(&new.to_le_bytes());
            format!("length {v} at {p} set to {new}")
        }
        2 if !body.is_empty() => {
            let p = r.gen_range(0..body.len());
            body[p] ^= 1u8 << r.gen_range(0..8u32);
            format!("bit flip at {p}")
        }
        _ => {
            body.push(r.gen());
            "a trailing byte".into()
        }
    }
}

/// `(start, end)` of every complete record in a journal.
fn journal_records(b: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    while let Ok(len) = BinReader::new(b.get(pos..).unwrap_or(&[])).get_u32() {
        let end = pos + 12 + len as usize;
        if end > b.len() {
            break;
        }
        out.push((pos, end));
        pos = end;
    }
    out
}

fn duplicate_record(mut b: Vec<u8>, r: &mut DetRng) -> (Vec<u8>, String) {
    let records = journal_records(&b);
    let (start, end) = records[r.gen_range(0..records.len())];
    let copy = b[start..end].to_vec();
    b.splice(end..end, copy);
    (b, format!("duplicated the record at {start}"))
}

/// Edit one record's body and recompute its length prefix and checksum,
/// so the damage reaches the body decoder.
fn edit_record(mut b: Vec<u8>, r: &mut DetRng) -> (Vec<u8>, String) {
    let records = journal_records(&b);
    let (start, end) = records[r.gen_range(0..records.len())];
    let mut body = b[start + 4..end - 8].to_vec();
    let what = edit_body(&mut body, r);
    let mut framed = (body.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&body);
    let sum = binary::fnv1a64(&framed);
    framed.extend_from_slice(&sum.to_le_bytes());
    b.splice(start..end, framed);
    (b, format!("record at {start} re-checksummed: {what}"))
}

fn fuzz(artifact: &Artifact, seed: u64) {
    let name = &artifact.name;
    let (clean, n) = (artifact.round_trip)(&artifact.bytes).expect("clean artifact decodes");
    assert_eq!(clean, artifact.bytes[..n], "{name}: clean round trip");
    let mut r = rng(seed);
    for iteration in 0..ITERATIONS {
        let (input, what) = mutate(artifact, &mut r);
        LARGEST.with(|l| l.set(0));
        let outcome = catch_unwind(AssertUnwindSafe(|| (artifact.round_trip)(&input)));
        let context = format!("{name} iteration {iteration} ({what})");
        match outcome {
            Err(_) => panic!("{context}: the decoder panicked"),
            Ok(Ok((again, n))) => assert!(
                n <= input.len() && again == input[..n],
                "{context}: accepted bytes that do not re-encode identically"
            ),
            Ok(Err(ErError::Corrupt(_) | ErError::Model(_))) => {}
            Ok(Err(e)) => panic!("{context}: untyped error {e}"),
        }
        let largest = LARGEST.with(Cell::get);
        let bound = 2 * input.len() + (1 << 20);
        assert!(
            largest <= bound,
            "{context}: a {largest}-byte allocation for a {}-byte input",
            input.len()
        );
    }
}

#[test]
fn index_containers_decode_or_fail_typed() {
    for (i, artifact) in index_artifacts().iter().enumerate() {
        fuzz(artifact, 100 + i as u64);
    }
}

#[test]
fn resolver_saves_decode_or_fail_typed() {
    for (i, artifact) in resolver_artifacts().iter().enumerate() {
        fuzz(artifact, 200 + i as u64);
    }
}

#[test]
fn journal_decodes_to_a_committed_prefix_or_fails_typed() {
    fuzz(&journal_artifact(), 300);
}

#[test]
fn zoo_cache_decodes_or_fails_typed() {
    fuzz(&zoo_artifact(), 400);
    std::fs::remove_dir_all(scratch_dir("zoo")).ok();
}
