//! Process-wide interning of strings and binary blobs.
//!
//! Bounded testing snapshots an [`Instance`](crate::Instance) at every node
//! of the update-call tree — millions of clones per synthesis run. With
//! `Value::Str(String)` every snapshot re-heap-allocates every string in the
//! database; the profile of PR 2's prefix-shared engine was dominated by
//! exactly those clones. Interning replaces the owned payloads with `u32`
//! symbols into two append-only pools, which makes
//! [`Value`](crate::value::Value) a `Copy` type: snapshotting a tuple is a
//! `memcpy`, equality and hashing are integer operations, and only ordering
//! comparisons and display ever look at the characters again.
//!
//! The pools are **process-global and append-only**: entries are leaked into
//! `&'static` storage on first sight and never freed, so resolution hands
//! out `&'static` references. This is the right trade-off for a synthesizer
//! — the universe of distinct strings is the program text plus a handful of
//! seed constants, not attacker-controlled input.
//!
//! Resolution is the hot path: ordering two distinct strings or table names
//! resolves both, and bounded testing orders values and looks up tables
//! millions of times per check on every worker thread. It therefore takes
//! no lock and writes nothing shared. Each pool stores id → payload in 32
//! lazily allocated chunks of write-once slots, chunk `k` holding `2^k`
//! slots, so a resolution is two acquire loads (chunk, then slot). Only
//! interning a payload takes the pool's lock, which guards the payload → id
//! map; an id is handed out only after its slot is filled.
//!
//! [`stats`] reports how much the pools hold, which the benchmark harness
//! records as an allocation proxy alongside wall times.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// An interned string: a `u32` index into the process-wide string pool.
///
/// Two `Sym`s are equal iff the strings they denote are equal (interning is
/// canonical). Symbols deliberately implement no ordering — symbol numbers
/// reflect interning insertion order, which is meaningless and
/// nondeterministic under parallel interning; order strings via
/// [`Sym::as_str`] (as [`Value`]'s manual `Ord` does).
///
/// [`Value`]: crate::value::Value
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The interned string.
    pub fn as_str(self) -> &'static str {
        STRINGS.resolve(self.0)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Resolve in Debug output too: `Sym(3)` would be useless in test
        // failures and must never leak into anything user-visible.
        write!(f, "Sym({:?})", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An interned binary blob: a `u32` index into the process-wide blob pool.
///
/// Same contract as [`Sym`], for `&[u8]` payloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Blob(u32);

impl Blob {
    /// The interned bytes.
    pub fn as_bytes(self) -> &'static [u8] {
        BLOBS.resolve(self.0)
    }
}

impl fmt::Debug for Blob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Blob(0x")?;
        for byte in self.as_bytes() {
            write!(f, "{byte:02x}")?;
        }
        f.write_str(")")
    }
}

/// Interns a string, returning its canonical symbol.
pub fn intern_str(s: &str) -> Sym {
    Sym(STRINGS.intern(s))
}

/// Interns a byte blob, returning its canonical symbol.
pub fn intern_bytes(b: &[u8]) -> Blob {
    Blob(BLOBS.intern(b))
}

/// A snapshot of the interner's footprint, used by the benchmark harness as
/// an allocation proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InternStats {
    /// Number of distinct interned strings.
    pub strings: usize,
    /// Total bytes of interned string payloads.
    pub string_bytes: usize,
    /// Number of distinct interned blobs.
    pub blobs: usize,
    /// Total bytes of interned blob payloads.
    pub blob_bytes: usize,
}

impl InternStats {
    /// Total payload bytes across both pools.
    pub fn total_bytes(&self) -> usize {
        self.string_bytes + self.blob_bytes
    }
}

/// Current footprint of both pools.
pub fn stats() -> InternStats {
    let (strings, string_bytes) = STRINGS.footprint();
    let (blobs, blob_bytes) = BLOBS.footprint();
    InternStats {
        strings,
        string_bytes,
        blobs,
        blob_bytes,
    }
}

/// Number of slot chunks per pool; chunk `k` holds `2^k` slots.
const CHUNKS: usize = 32;

/// The largest id a pool hands out: the `2^32 - 1` slots of the 32 chunks
/// hold ids `0..=u32::MAX - 1`.
const MAX_ID: u32 = u32::MAX - 1;

/// Where id `id` lives: `(chunk, slot)`. Chunk `k` holds ids
/// `2^k - 1 ..= 2^(k+1) - 2`, so the chunk is the position of `id + 1`'s
/// highest set bit and the slot is `id + 1` without that bit.
///
/// # Panics
///
/// Past [`MAX_ID`]: interning relies on this to refuse a full pool instead
/// of indexing past the chunk array.
fn locate(id: u32) -> (usize, usize) {
    assert!(id <= MAX_ID, "intern pool is full: ids run out at {MAX_ID}");
    let n = id + 1;
    let chunk = (u32::BITS - 1 - n.leading_zeros()) as usize;
    (chunk, (n - (1 << chunk)) as usize)
}

/// One append-only, leak-backed pool. `T` is the unsized payload
/// (`str` or `[u8]`).
struct Pool<T: ?Sized + 'static> {
    /// id → payload: chunk `k` is allocated when its first id is interned,
    /// and each slot is written once, before its id is handed out.
    chunks: [OnceLock<Box<[OnceLock<&'static T>]>>; CHUNKS],
    /// The interning side; resolution never touches it.
    interner: OnceLock<Mutex<Interner<T>>>,
}

struct Interner<T: ?Sized + 'static> {
    /// payload → id, for canonicalization.
    map: HashMap<&'static T, u32>,
    /// Total payload bytes held.
    bytes: usize,
}

impl<T> Pool<T>
where
    T: ?Sized + std::hash::Hash + Eq + PayloadLen + 'static,
{
    const fn new() -> Pool<T> {
        Pool {
            chunks: [const { OnceLock::new() }; CHUNKS],
            interner: OnceLock::new(),
        }
    }

    /// Takes the pool's intern lock.
    fn interner(&self) -> MutexGuard<'_, Interner<T>> {
        self.interner
            .get_or_init(|| {
                Mutex::new(Interner {
                    map: HashMap::new(),
                    bytes: 0,
                })
            })
            .lock()
            .expect("interner poisoned")
    }

    fn intern(&self, payload: &T) -> u32
    where
        for<'a> &'a T: Leak<T>,
    {
        let mut interner = self.interner();
        if let Some(&id) = interner.map.get(payload) {
            return id;
        }
        // `locate` refuses ids past `MAX_ID`, so the map never outgrows `u32`.
        let id = u32::try_from(interner.map.len()).expect("intern map outgrew u32");
        let (chunk, slot) = locate(id);
        let leaked: &'static T = payload.leak();
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
        assert!(
            slots[slot].set(leaked).is_ok(),
            "intern id {id} issued twice"
        );
        interner.map.insert(leaked, id);
        interner.bytes += leaked.payload_len();
        id
    }

    fn resolve(&self, id: u32) -> &'static T {
        let (chunk, slot) = locate(id);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[slot].get())
            .copied()
            .expect("intern id resolved before it was issued")
    }

    fn footprint(&self) -> (usize, usize) {
        let interner = self.interner();
        (interner.map.len(), interner.bytes)
    }
}

/// Payload size in bytes (for the allocation-proxy stats).
trait PayloadLen {
    fn payload_len(&self) -> usize;
}

impl PayloadLen for str {
    fn payload_len(&self) -> usize {
        self.len()
    }
}

impl PayloadLen for [u8] {
    fn payload_len(&self) -> usize {
        self.len()
    }
}

/// Leaks a borrowed payload into `&'static` storage.
trait Leak<T: ?Sized> {
    fn leak(self) -> &'static T;
}

impl Leak<str> for &str {
    fn leak(self) -> &'static str {
        Box::leak(self.to_owned().into_boxed_str())
    }
}

impl Leak<[u8]> for &[u8] {
    fn leak(self) -> &'static [u8] {
        Box::leak(self.to_owned().into_boxed_slice())
    }
}

static STRINGS: Pool<str> = Pool::new();
static BLOBS: Pool<[u8]> = Pool::new();

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn interning_is_canonical() {
        let a = intern_str("hello");
        let b = intern_str("hello");
        let c = intern_str("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn blobs_are_canonical() {
        let a = intern_bytes(&[1, 2, 3]);
        let b = intern_bytes(&[1, 2, 3]);
        let c = intern_bytes(&[]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_bytes(), &[1, 2, 3]);
        assert_eq!(c.as_bytes(), &[] as &[u8]);
    }

    #[test]
    fn debug_resolves_payloads() {
        let sym = intern_str("x\"y");
        assert_eq!(format!("{sym:?}"), "Sym(\"x\\\"y\")");
        let blob = intern_bytes(&[0xab, 0x01]);
        assert_eq!(format!("{blob:?}"), "Blob(0xab01)");
    }

    #[test]
    fn stats_grow_monotonically() {
        let before = stats();
        // A string that no other test interns.
        intern_str("stats_grow_monotonically probe");
        let after = stats();
        assert!(after.strings > before.strings);
        assert!(after.string_bytes > before.string_bytes);
        assert_eq!(after.total_bytes(), after.string_bytes + after.blob_bytes);
    }

    #[test]
    fn concurrent_interning_agrees() {
        // Enough distinct payloads to fill several chunks (chunk `k` holds
        // `2^k` ids), interned by four threads in different orders while
        // two more resolve every symbol they have been sent so far.
        const WORDS: usize = 4096;
        let words: Vec<String> = (0..WORDS).map(|i| format!("concurrent-{i}")).collect();
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..2).map(|_| mpsc::channel::<(usize, Sym)>()).unzip();
        let symbols: Vec<Vec<Sym>> = std::thread::scope(|scope| {
            for receiver in receivers {
                let words = &words;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for (index, sym) in receiver {
                        seen.push((index, sym));
                        if seen.len() % 512 == 0 {
                            for &(index, sym) in &seen {
                                assert_eq!(sym.as_str(), words[index]);
                            }
                        }
                    }
                    for &(index, sym) in &seen {
                        assert_eq!(sym.as_str(), words[index]);
                    }
                });
            }
            let handles: Vec<_> = (0..4)
                .map(|thread| {
                    let senders = senders.clone();
                    let words = &words;
                    scope.spawn(move || {
                        let mut symbols = vec![None; WORDS];
                        for step in 0..WORDS {
                            let index = (step + thread * WORDS / 4) % WORDS;
                            let sym = intern_str(&words[index]);
                            symbols[index] = Some(sym);
                            for sender in &senders {
                                sender.send((index, sym)).unwrap();
                            }
                        }
                        symbols.into_iter().map(Option::unwrap).collect::<Vec<_>>()
                    })
                })
                .collect();
            drop(senders);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &symbols[1..] {
            assert_eq!(&symbols[0], other);
        }
        for (word, sym) in words.iter().zip(&symbols[0]) {
            assert_eq!(sym.as_str(), word);
        }
    }

    #[test]
    fn resolving_never_waits_on_the_intern_lock() {
        let sym = intern_str("resolving_never_waits_on_the_intern_lock probe");
        let (sender, receiver) = mpsc::channel();
        let held = STRINGS.interner();
        let resolver = std::thread::spawn(move || sender.send(sym.as_str()));
        let resolved = receiver.recv_timeout(Duration::from_secs(5));
        drop(held);
        resolver.join().unwrap().unwrap();
        assert_eq!(
            resolved,
            Ok("resolving_never_waits_on_the_intern_lock probe"),
            "resolution waited on the intern lock"
        );
    }

    #[test]
    fn ids_map_to_doubling_chunks() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        for k in 2..CHUNKS {
            // `2^k - 2` is the last slot of chunk `k - 1`, `2^k - 1` the
            // first of chunk `k`.
            let first = (1u32 << k) - 1;
            assert_eq!(locate(first - 1), (k - 1, (1 << (k - 1)) - 1));
            assert_eq!(locate(first), (k, 0));
        }
        assert_eq!(locate(MAX_ID), (CHUNKS - 1, (1 << (CHUNKS - 1)) - 1));
    }

    #[test]
    #[should_panic(expected = "intern pool is full")]
    fn ids_past_the_largest_are_refused() {
        locate(MAX_ID + 1);
    }
}
