//! Stable fingerprints for content-addressed keys.
//!
//! The simulation cache, the golden-artifact cache, the persistent
//! store's cell keys and the run manifest's plan key address content by
//! [`Fingerprint`]: a hash that is equal for equal values, stable
//! across processes and platforms, and cheap enough to compute on every
//! probe.
//!
//! Every fingerprinted type derives [`Hash`], so its definition is its
//! only description: a field added to a type is hashed without anyone
//! having to remember it. [`fingerprint`] feeds a value's `Hash` into a
//! [`FingerprintHasher`]: FNV-1a, with every integer written as
//! fixed-width little-endian bytes (`usize` as 8), so a fingerprint
//! does not depend on the platform's word size or byte order.
//! `std::collections::hash_map::DefaultHasher` makes no cross-version
//! stability promise; FNV-1a is fixed. The byte stream itself comes
//! from the derives and std's `Hash` impls: an enum writes its
//! discriminant before its payload, a sequence its length before its
//! elements, a string its bytes and a `0xff` terminator. std does not
//! promise to keep that stream, so encoding-vector tests pin literal
//! fingerprints: a drift fails a test instead of silently orphaning
//! every stored cell. One exception to the byte-order independence:
//! std hashes an integer slice as its native-endian bytes in one
//! write (`LogicVec`'s planes above 64 bits), so a big-endian host
//! fingerprints such values differently; its store misses those cells
//! and never misreads them.
//!
//! The first-generation scheme, FNV-1a over a `Debug` or pretty-print
//! rendering, survives as **test-only oracles**: [`debug_hash`] and
//! [`structural_hash`] define what "distinguishable" means, and the
//! differential suite (`tests/fingerprint_props.rs`) pins that
//! fingerprints separate every design pair the pretty-print hash
//! separates while agreeing on re-parses. Production cache paths must
//! not call them (a source-scan test in `tbgen` enforces it): rendering
//! cost nearly as much as elaboration itself.

use crate::ast::SourceFile;
use crate::pretty::print_file;
use std::fmt::{self, Write};
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FingerprintHasher::default();
    h.write(bytes);
    h.finish()
}

/// A stable 64-bit fingerprint: the typed content address of one
/// artifact (design source, checker program, problem, cache key). Equal
/// values fingerprint equal in any process on any platform; the newtype
/// keeps cache keys from silently accepting hashes computed some other
/// way.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The fingerprint of `value`: its [`Hash`] fed through a fresh
/// [`FingerprintHasher`]. [`SourceFile::fingerprint`] caches this per
/// parsed file.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> Fingerprint {
    let mut h = FingerprintHasher::default();
    value.hash(&mut h);
    Fingerprint(h.finish())
}

/// An FNV-1a [`Hasher`] with a platform-independent integer encoding:
/// every integer goes in as its fixed-width little-endian bytes, and
/// `usize` as a 64-bit word (signed integers as their unsigned bits).
#[derive(Clone, Copy, Debug)]
pub struct FingerprintHasher(u64);

impl Default for FingerprintHasher {
    /// A fresh state at the FNV-1a offset basis.
    fn default() -> Self {
        FingerprintHasher(FNV_OFFSET)
    }
}

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

// ---------------------------------------------------------------------
// Test-only oracles: the first-generation rendering hashes. They define
// "distinguishable" for the differential suite; nothing on a cache-key
// path may call them (enforced by a source-scan test in `tbgen`).
// ---------------------------------------------------------------------

/// An [`fmt::Write`] sink that folds everything written into an FNV-1a
/// state, so `Debug`/`Display` streams can be hashed without allocating
/// the intermediate string.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvWriter(FingerprintHasher);

impl FnvWriter {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        FnvWriter::default()
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0.finish()
    }
}

impl Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Stable hash of a value's `Debug` rendering. **Test-only oracle**: the
/// rendering costs as much as the formatting machinery, so cache probes
/// use [`fingerprint`]s instead; this survives as the reference the
/// differential suite compares fingerprints against.
pub fn debug_hash<T: fmt::Debug>(value: &T) -> u64 {
    let mut w = FnvWriter::new();
    write!(w, "{value:?}").expect("FnvWriter never fails");
    w.finish()
}

/// Stable hash of a parsed source file's pretty-print rendering.
/// **Test-only oracle** (see [`debug_hash`]): two sources that
/// pretty-print identically are structurally identical (the printer is a
/// parser fixpoint — see `tests/roundtrip_props.rs`), which makes this
/// the canonical "do these designs differ?" reference for the
/// fingerprint differential suite. Cache keys use
/// [`SourceFile::fingerprint`].
pub fn structural_hash(file: &SourceFile) -> u64 {
    fnv1a64(print_file(file).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str =
        "module inc(input [3:0] a, output [3:0] y);\nassign y = a + 4'd1;\nendmodule\n";

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn writer_matches_slice_hash() {
        let mut w = FnvWriter::new();
        w.write_str("foobar").unwrap();
        assert_eq!(w.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn hasher_bytes_match_slice_hash() {
        let mut h = FingerprintHasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn integers_go_in_as_fixed_width_little_endian_bytes() {
        let le = |bytes: &[u8]| Fingerprint(fnv1a64(bytes));
        assert_eq!(fingerprint(&0x0102u16), le(&[2, 1]));
        assert_eq!(fingerprint(&0x0102_0304u32), le(&[4, 3, 2, 1]));
        assert_eq!(fingerprint(&7u64), le(&7u64.to_le_bytes()));
        assert_eq!(fingerprint(&7u128), le(&7u128.to_le_bytes()));
        assert_eq!(fingerprint(&-2i32), le(&(-2i32).to_le_bytes()));
        // Word-sized integers are 64-bit words on every platform.
        assert_eq!(fingerprint(&7usize), fingerprint(&7u64));
    }

    #[test]
    fn fingerprint_is_formatting_insensitive() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace('\n', "  \n ")).expect("parses");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_different_designs() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace("a + 4'd1", "a - 4'd1")).expect("parses");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    /// A literal fingerprint of a fixed parse. The in-process simulation
    /// cache keys its runs by parse fingerprints, and the store's cell
    /// keys hash other values through the same derives and hasher, so a
    /// drift in std's `Hash` impls or the hasher's integer widths fails
    /// here. No stored cell key hashes an AST: a change to the AST's
    /// types moves this literal and orphans no cell.
    #[test]
    fn encoding_vector_of_a_parse() {
        let file = parse(SRC).expect("parses");
        assert_eq!(file.fingerprint(), Fingerprint(0x0bd2_fa56_6c07_1a07));
        assert_eq!(fingerprint(&file), file.fingerprint());
    }

    #[test]
    fn oracle_hash_is_formatting_insensitive() {
        let a = parse(SRC).expect("parses");
        let b = parse(&SRC.replace('\n', "  \n ")).expect("parses");
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn strings_are_prefix_free() {
        // ("ab", "c") vs ("a", "bc"): one byte stream without a boundary
        // marker between the strings.
        assert_ne!(fingerprint(&("ab", "c")), fingerprint(&("a", "bc")));
        assert_eq!(
            fingerprint(&("ab".to_string(), "c")),
            fingerprint(&("ab", "c"))
        );
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Fingerprint(0xab)), "00000000000000ab");
    }
}
