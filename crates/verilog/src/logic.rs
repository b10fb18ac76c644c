//! Four-state logic values.
//!
//! A [`LogicVec`] stores a fixed-width vector of IEEE-1364 four-state bits
//! (`0`, `1`, `x`, `z`) in two bit planes, the classic aval/bval encoding
//! used by VPI and most event-driven simulators:
//!
//! | bit | `val` plane | `unk` plane |
//! |-----|-------------|-------------|
//! | `0` | 0           | 0           |
//! | `1` | 1           | 0           |
//! | `x` | 0           | 1           |
//! | `z` | 1           | 1           |
//!
//! All operators follow the Verilog semantics used by the simulator and the
//! checker IR interpreter: bitwise operators propagate `x` per the standard
//! truth tables, arithmetic and relational operators produce an all-`x`
//! result if any input bit is unknown, and case equality (how a `case`
//! label matches) compares the four-state encoding exactly.
//!
//! # Representation
//!
//! Widths up to 64 bits — the overwhelmingly common case in the benchmark
//! designs — are stored **inline** as two `u64` plane words with no heap
//! allocation; wider vectors spill to heap-allocated word vectors. The
//! variant is determined solely by the width, so plane-level equality and
//! hashing remain value equality. Beside the value-returning operators the
//! type offers a few **in-place ops** ([`LogicVec::write_range`],
//! [`LogicVec::assign_resize`], [`LogicVec::copy_from`]) for the
//! simulator's signal commits and the checker's judge session, which
//! overwrite preallocated values.

use std::fmt;

/// A single four-state bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Bit {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Bit {
    /// Returns `true` for [`Bit::Zero`] and [`Bit::One`].
    pub fn is_known(self) -> bool {
        matches!(self, Bit::Zero | Bit::One)
    }

    /// The character Verilog sources use for this bit (`0`, `1`, `x`, `z`).
    pub fn to_char(self) -> char {
        match self {
            Bit::Zero => '0',
            Bit::One => '1',
            Bit::X => 'x',
            Bit::Z => 'z',
        }
    }

    /// The `(unk, val)` plane encoding of this bit.
    #[inline]
    fn planes(self) -> (u64, u64) {
        match self {
            Bit::Zero => (0, 0),
            Bit::One => (0, 1),
            Bit::X => (1, 0),
            Bit::Z => (1, 1),
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A fixed-width vector of four-state bits.
///
/// Bit 0 is the least significant bit. Widths of any size are supported;
/// storage is in 64-bit words — inline for widths ≤ 64, heap-spilled
/// above. Unused high bits of the last word are always kept at zero in
/// both planes (the *normalized* invariant), so plane-level equality is
/// value equality.
///
/// # Examples
///
/// ```
/// use correctbench_verilog::logic::LogicVec;
///
/// let a = LogicVec::from_u64(8, 0x5a);
/// let b = LogicVec::from_u64(8, 0x0f);
/// assert_eq!(a.and(&b), LogicVec::from_u64(8, 0x0a));
/// assert_eq!(a.add(&b).to_u64(), Some(0x69));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: usize,
    repr: Repr,
}

/// Plane storage. The variant is a pure function of the width (≤ 64 ⇒
/// `Small`), which keeps derived equality/hashing value-accurate.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// One inline word per plane; no allocation.
    Small { val: u64, unk: u64 },
    /// Spilled storage for widths above 64.
    Wide { val: Vec<u64>, unk: Vec<u64> },
}

fn words_for(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

fn top_mask(width: usize) -> u64 {
    let rem = width % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Reads the 64-bit chunk of `words` starting at bit position `bit`,
/// zero-filled beyond the end of the slice.
#[inline]
fn get_chunk(words: &[u64], bit: usize) -> u64 {
    let w = bit / 64;
    let r = bit % 64;
    let lo = words.get(w).copied().unwrap_or(0) >> r;
    if r == 0 {
        lo
    } else {
        lo | (words.get(w + 1).copied().unwrap_or(0) << (64 - r))
    }
}

/// Overwrites `n` bits of `dst` starting at `dst_lo` with the bits of
/// `src` starting at `src_lo` (zero-filled beyond `src`). Word-level.
fn copy_words_range(dst: &mut [u64], dst_lo: usize, src: &[u64], src_lo: usize, n: usize) {
    let mut done = 0usize;
    while done < n {
        let d = dst_lo + done;
        let dw = d / 64;
        let dr = d % 64;
        let take = (64 - dr).min(n - done);
        let mask = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << dr
        };
        let chunk = get_chunk(src, src_lo + done) << dr;
        dst[dw] = (dst[dw] & !mask) | (chunk & mask);
        done += take;
    }
}

/// Fills `n` bits of `words` starting at `lo` with `bit` (0 or all-ones
/// pattern). Word-level.
fn fill_words_range(words: &mut [u64], lo: usize, n: usize, bit: bool) {
    let mut done = 0usize;
    while done < n {
        let d = lo + done;
        let dw = d / 64;
        let dr = d % 64;
        let take = (64 - dr).min(n - done);
        let mask = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << dr
        };
        if bit {
            words[dw] |= mask;
        } else {
            words[dw] &= !mask;
        }
        done += take;
    }
}

impl LogicVec {
    /// An all-`x` vector, the value of every `reg` before first assignment.
    pub fn filled_x(width: usize) -> Self {
        assert!(width > 0, "logic vector width must be positive");
        let mut v = LogicVec::zeros(width);
        {
            let (_, unk) = v.planes_mut();
            for w in unk.iter_mut() {
                *w = u64::MAX;
            }
        }
        v.normalize();
        v
    }

    /// An all-`z` vector.
    pub fn filled_z(width: usize) -> Self {
        assert!(width > 0, "logic vector width must be positive");
        let mut v = LogicVec::zeros(width);
        {
            let (val, unk) = v.planes_mut();
            for w in val.iter_mut() {
                *w = u64::MAX;
            }
            for w in unk.iter_mut() {
                *w = u64::MAX;
            }
        }
        v.normalize();
        v
    }

    /// An all-zero vector.
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "logic vector width must be positive");
        let repr = if width <= 64 {
            Repr::Small { val: 0, unk: 0 }
        } else {
            let n = words_for(width);
            Repr::Wide {
                val: vec![0; n],
                unk: vec![0; n],
            }
        };
        LogicVec { width, repr }
    }

    /// An all-ones vector.
    pub fn ones(width: usize) -> Self {
        let mut v = LogicVec::zeros(width);
        {
            let (val, _) = v.planes_mut();
            for w in val.iter_mut() {
                *w = u64::MAX;
            }
        }
        v.normalize();
        v
    }

    /// Builds a vector from the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut v = LogicVec::zeros(width);
        v.planes_mut().0[0] = value;
        v.normalize();
        v
    }

    /// Builds a vector from the low `width` bits of a `u128`.
    pub fn from_u128(width: usize, value: u128) -> Self {
        let mut v = LogicVec::zeros(width);
        {
            let (val, _) = v.planes_mut();
            val[0] = value as u64;
            if val.len() > 1 {
                val[1] = (value >> 64) as u64;
            }
        }
        v.normalize();
        v
    }

    /// A 1-bit vector from a boolean.
    pub fn from_bool(b: bool) -> Self {
        LogicVec::from_u64(1, b as u64)
    }

    /// A 1-bit vector from a [`Bit`].
    pub fn from_bit(b: Bit) -> Self {
        let (u, v) = b.planes();
        LogicVec {
            width: 1,
            repr: Repr::Small { val: v, unk: u },
        }
    }

    /// Builds a vector from bits listed most-significant first, as they
    /// appear in a Verilog binary literal.
    pub fn from_bits_msb_first(bits: &[Bit]) -> Self {
        assert!(!bits.is_empty(), "bit list must be non-empty");
        let mut v = LogicVec::zeros(bits.len());
        for (i, b) in bits.iter().rev().enumerate() {
            v.set_bit(i, *b);
        }
        v
    }

    /// The two plane word slices `(val, unk)`.
    #[inline]
    fn planes(&self) -> (&[u64], &[u64]) {
        match &self.repr {
            Repr::Small { val, unk } => (std::slice::from_ref(val), std::slice::from_ref(unk)),
            Repr::Wide { val, unk } => (val, unk),
        }
    }

    /// Mutable plane word slices `(val, unk)`.
    #[inline]
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.repr {
            Repr::Small { val, unk } => (std::slice::from_mut(val), std::slice::from_mut(unk)),
            Repr::Wide { val, unk } => (val, unk),
        }
    }

    /// `true` when the value lives inline (width ≤ 64, no heap storage).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small { .. })
    }

    /// Restores the normalized invariant (clears unused high bits).
    fn normalize(&mut self) {
        let m = top_mask(self.width);
        match &mut self.repr {
            Repr::Small { val, unk } => {
                *val &= m;
                *unk &= m;
            }
            Repr::Wide { val, unk } => {
                let last = val.len() - 1;
                val[last] &= m;
                unk[last] &= m;
            }
        }
    }

    /// The bit width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn bit(&self, i: usize) -> Bit {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let (v, u) = match &self.repr {
            Repr::Small { val, unk } => ((*val >> i) & 1, (*unk >> i) & 1),
            Repr::Wide { val, unk } => {
                let w = i / 64;
                let b = i % 64;
                ((val[w] >> b) & 1, (unk[w] >> b) & 1)
            }
        };
        match (u, v) {
            (0, 0) => Bit::Zero,
            (0, 1) => Bit::One,
            (1, 0) => Bit::X,
            _ => Bit::Z,
        }
    }

    /// Writes bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn set_bit(&mut self, i: usize, b: Bit) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let (u, v) = b.planes();
        match &mut self.repr {
            Repr::Small { val, unk } => {
                *val = (*val & !(1 << i)) | (v << i);
                *unk = (*unk & !(1 << i)) | (u << i);
            }
            Repr::Wide { val, unk } => {
                let w = i / 64;
                let sh = i % 64;
                val[w] = (val[w] & !(1 << sh)) | (v << sh);
                unk[w] = (unk[w] & !(1 << sh)) | (u << sh);
            }
        }
    }

    /// `true` when no bit is `x` or `z`.
    #[inline]
    pub fn is_fully_known(&self) -> bool {
        match &self.repr {
            Repr::Small { unk, .. } => *unk == 0,
            Repr::Wide { unk, .. } => unk.iter().all(|&w| w == 0),
        }
    }

    /// `true` when every bit is `x` or `z`.
    pub fn is_fully_unknown(&self) -> bool {
        let m = top_mask(self.width);
        let (_, unk) = self.planes();
        let last = unk.len() - 1;
        unk[..last].iter().all(|&w| w == u64::MAX) && unk[last] == m
    }

    /// The value as a `u64` if fully known and all bits above 64 are zero.
    pub fn to_u64(&self) -> Option<u64> {
        if !self.is_fully_known() {
            return None;
        }
        let (val, _) = self.planes();
        if val[1..].iter().any(|&w| w != 0) {
            return None;
        }
        Some(val[0])
    }

    /// The value as a `u128` if fully known and all bits above 128 are zero.
    pub fn to_u128(&self) -> Option<u128> {
        if !self.is_fully_known() {
            return None;
        }
        let (val, _) = self.planes();
        if val.len() > 2 && val[2..].iter().any(|&w| w != 0) {
            return None;
        }
        let lo = val[0] as u128;
        let hi = if val.len() > 1 { val[1] as u128 } else { 0 };
        Some(lo | (hi << 64))
    }

    /// Interprets the vector as a signed integer, if fully known and the
    /// magnitude fits an `i64`.
    pub fn to_i64(&self) -> Option<i64> {
        if !self.is_fully_known() {
            return None;
        }
        let sext = self.sign_extend(64.max(self.width));
        let (val, _) = sext.planes();
        if sext.width > 64 {
            // All words above the first must be a sign extension of bit 63.
            let neg = (val[0] >> 63) & 1 == 1;
            let fill = if neg { u64::MAX } else { 0 };
            let m = top_mask(sext.width);
            let last = val.len() - 1;
            for (i, &w) in val.iter().enumerate().skip(1) {
                let expect = if i == last { fill & m } else { fill };
                if w != expect {
                    return None;
                }
            }
        }
        Some(val[0] as i64)
    }

    /// Truth value per Verilog: `1` if any bit is one, `0` if all bits are
    /// zero, `x` otherwise.
    pub fn truthy(&self) -> Bit {
        let (val, unk) = self.planes();
        let any_one = val.iter().zip(unk).any(|(&v, &u)| v & !u != 0);
        if any_one {
            return Bit::One;
        }
        if self.is_fully_known() {
            Bit::Zero
        } else {
            Bit::X
        }
    }

    /// `true` when [`truthy`](Self::truthy) is [`Bit::One`].
    pub fn is_true(&self) -> bool {
        self.truthy() == Bit::One
    }

    /// Zero- or sign-less resize: truncates or zero-extends to `width`.
    pub fn zero_extend(&self, width: usize) -> LogicVec {
        assert!(width > 0);
        if width == self.width {
            return self.clone();
        }
        let mut out = LogicVec::zeros(width);
        out.assign_resize(self, false);
        out
    }

    /// Truncates or sign-extends (replicating the MSB, including `x`/`z`).
    pub fn sign_extend(&self, width: usize) -> LogicVec {
        assert!(width > 0);
        if width == self.width {
            return self.clone();
        }
        let mut out = LogicVec::zeros(width);
        out.assign_resize(self, true);
        out
    }

    /// Resize honouring a signedness flag.
    pub fn resize(&self, width: usize, signed: bool) -> LogicVec {
        if signed {
            self.sign_extend(width)
        } else {
            self.zero_extend(width)
        }
    }

    /// In-place resize: overwrites `self` with `src` truncated or extended
    /// to `self`'s width (sign-extension replicates `src`'s MSB including
    /// `x`/`z` when `signed`). The zero-allocation workhorse behind
    /// [`LogicVec::resize`] and the checker session's register stages.
    pub fn assign_resize(&mut self, src: &LogicVec, signed: bool) {
        let width = self.width;
        let copy = src.width.min(width);
        {
            let (sv, su) = src.planes();
            let (dv, du) = self.planes_mut();
            copy_words_range(dv, 0, sv, 0, copy);
            copy_words_range(du, 0, su, 0, copy);
            if width > copy {
                let (fill_u, fill_v) = if signed {
                    src.bit(src.width - 1).planes()
                } else {
                    (0, 0)
                };
                let (dv, du) = self.planes_mut();
                fill_words_range(dv, copy, width - copy, fill_v == 1);
                fill_words_range(du, copy, width - copy, fill_u == 1);
            }
        }
        self.normalize();
    }

    /// In-place copy from an equal-width source. No allocation.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    pub fn copy_from(&mut self, src: &LogicVec) {
        assert_eq!(self.width, src.width, "copy_from width mismatch");
        match (&mut self.repr, &src.repr) {
            (Repr::Small { val, unk }, Repr::Small { val: sv, unk: su }) => {
                *val = *sv;
                *unk = *su;
            }
            (Repr::Wide { val, unk }, Repr::Wide { val: sv, unk: su }) => {
                val.copy_from_slice(sv);
                unk.copy_from_slice(su);
            }
            _ => unreachable!("representation is width-determined"),
        }
    }

    /// In-place `slice`-then-zero-extend: overwrites `self` with
    /// `src.slice(lo, w)` zero-extended (or truncated) to `self`'s width —
    /// bits of the slice beyond `src`'s width read `x`, exactly as
    /// [`LogicVec::slice`] produces them.
    pub fn assign_slice_ext(&mut self, src: &LogicVec, lo: usize, w: usize) {
        let width = self.width;
        let n = w.min(width);
        let avail = src.width.saturating_sub(lo).min(n);
        {
            let (sv, su) = src.planes();
            let (dv, du) = self.planes_mut();
            copy_words_range(dv, 0, sv, lo, avail);
            copy_words_range(du, 0, su, lo, avail);
            // Slice bits beyond the source width read x.
            fill_words_range(dv, avail, n - avail, false);
            fill_words_range(du, avail, n - avail, true);
            // Zero-extension above the slice width.
            fill_words_range(dv, n, width - n, false);
            fill_words_range(du, n, width - n, false);
        }
        self.normalize();
    }

    /// Writes up to `n` bits of `bits` into `self` starting at `lo`
    /// (clipped to both widths), returning whether any stored bit actually
    /// changed. In-place and allocation-free; the simulator's commit path
    /// uses the change flag to decide whether watchers fire.
    pub fn write_range(&mut self, lo: usize, bits: &LogicVec, n: usize) -> bool {
        if lo >= self.width {
            return false;
        }
        let count = n.min(bits.width).min(self.width - lo);
        let mut changed = false;
        let (sv, su) = bits.planes();
        let (dv, du) = self.planes_mut();
        let mut done = 0usize;
        while done < count {
            let d = lo + done;
            let dw = d / 64;
            let dr = d % 64;
            let take = (64 - dr).min(count - done);
            let mask = if take == 64 {
                u64::MAX
            } else {
                ((1u64 << take) - 1) << dr
            };
            let new_v = (dv[dw] & !mask) | ((get_chunk(sv, done) << dr) & mask);
            let new_u = (du[dw] & !mask) | ((get_chunk(su, done) << dr) & mask);
            changed |= new_v != dv[dw] || new_u != du[dw];
            dv[dw] = new_v;
            du[dw] = new_u;
            done += take;
        }
        changed
    }

    /// Concatenation `{self, low}` — `self` becomes the high part.
    pub fn concat(&self, low: &LogicVec) -> LogicVec {
        let width = self.width + low.width;
        let mut out = LogicVec::zeros(width);
        {
            let (lv, lu) = low.planes();
            let (hv, hu) = self.planes();
            let (dv, du) = out.planes_mut();
            copy_words_range(dv, 0, lv, 0, low.width);
            copy_words_range(du, 0, lu, 0, low.width);
            copy_words_range(dv, low.width, hv, 0, self.width);
            copy_words_range(du, low.width, hu, 0, self.width);
        }
        out
    }

    /// Replication `{n{self}}`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn repeat(&self, n: usize) -> LogicVec {
        assert!(n > 0, "replication count must be positive");
        let mut out = LogicVec::zeros(self.width * n);
        {
            let (sv, su) = self.planes();
            let (dv, du) = out.planes_mut();
            for i in 0..n {
                copy_words_range(dv, i * self.width, sv, 0, self.width);
                copy_words_range(du, i * self.width, su, 0, self.width);
            }
        }
        out
    }

    /// Extracts `width` bits starting at bit `lo`. Bits beyond the source
    /// width read as `x` (matching out-of-range part-selects).
    pub fn slice(&self, lo: usize, width: usize) -> LogicVec {
        assert!(width > 0);
        let mut out = LogicVec::zeros(width);
        out.assign_slice_ext(self, lo, width);
        out
    }

    // ---- bitwise ----

    /// Bitwise AND with `x` propagation (`0 & x == 0`).
    pub fn and(&self, other: &LogicVec) -> LogicVec {
        self.bitwise(other, and_words)
    }

    /// Bitwise OR with `x` propagation (`1 | x == 1`).
    pub fn or(&self, other: &LogicVec) -> LogicVec {
        self.bitwise(other, or_words)
    }

    /// Bitwise XOR (`x` if either bit is unknown).
    pub fn xor(&self, other: &LogicVec) -> LogicVec {
        self.bitwise(other, xor_words)
    }

    /// Bitwise XNOR.
    pub fn xnor(&self, other: &LogicVec) -> LogicVec {
        self.xor(other).not()
    }

    fn bitwise(&self, other: &LogicVec, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) -> LogicVec {
        if self.width == other.width {
            let mut out = self.clone();
            out.bitwise_assign(other, f);
            return out;
        }
        let width = self.width.max(other.width);
        let mut out = self.zero_extend(width);
        let b = other.zero_extend(width);
        out.bitwise_assign(&b, f);
        out
    }

    fn bitwise_assign(&mut self, other: &LogicVec, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) {
        assert_eq!(self.width, other.width, "bitwise width mismatch");
        let (bv, bu) = other.planes();
        let (av, au) = self.planes_mut();
        for i in 0..av.len() {
            let (one, unk) = f(av[i], au[i], bv[i], bu[i]);
            av[i] = one;
            au[i] = unk;
        }
        self.normalize();
    }

    /// Bitwise NOT (`~x == x`).
    pub fn not(&self) -> LogicVec {
        let mut out = self.clone();
        let (val, unk) = out.planes_mut();
        for i in 0..val.len() {
            val[i] = !val[i] & !unk[i];
        }
        out.normalize();
        out
    }

    // ---- reductions ----

    /// Reduction AND.
    pub fn reduce_and(&self) -> Bit {
        let m = top_mask(self.width);
        let (val, unk) = self.planes();
        let last = val.len() - 1;
        let mut any_zero = false;
        let mut any_unk = false;
        for i in 0..val.len() {
            let live = if i == last { m } else { u64::MAX };
            // A bit is known-zero when both planes are 0.
            any_zero |= (!val[i] & !unk[i] & live) != 0;
            any_unk |= (unk[i] & live) != 0;
        }
        if any_zero {
            Bit::Zero
        } else if any_unk {
            Bit::X
        } else {
            Bit::One
        }
    }

    /// Reduction OR.
    pub fn reduce_or(&self) -> Bit {
        match self.truthy() {
            Bit::One => Bit::One,
            Bit::Zero => Bit::Zero,
            _ => Bit::X,
        }
    }

    /// Reduction XOR (parity); `x` if any bit unknown.
    pub fn reduce_xor(&self) -> Bit {
        if !self.is_fully_known() {
            return Bit::X;
        }
        let (val, _) = self.planes();
        let parity = val.iter().fold(0u32, |acc, w| acc ^ w.count_ones()) & 1;
        if parity == 1 {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Number of one bits, or `None` if any bit is unknown.
    pub fn count_ones(&self) -> Option<u32> {
        if !self.is_fully_known() {
            return None;
        }
        let (val, _) = self.planes();
        Some(val.iter().map(|w| w.count_ones()).sum())
    }

    // ---- arithmetic (any unknown input -> all-x result) ----

    fn all_x_if_unknown(&self, other: &LogicVec, width: usize) -> Option<LogicVec> {
        if self.is_fully_known() && other.is_fully_known() {
            None
        } else {
            Some(LogicVec::filled_x(width))
        }
    }

    /// Wrapping addition at `max(widths)` bits.
    pub fn add(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(x) = self.all_x_if_unknown(other, width) {
            return x;
        }
        let mut out = self.zero_extend(width);
        if other.width == width {
            out.add_known(other);
        } else {
            out.add_known(&other.zero_extend(width));
        }
        out
    }

    /// Word-level wrapping add; both sides must be fully known and of
    /// `self`'s width.
    fn add_known(&mut self, other: &LogicVec) {
        let (bv, _) = other.planes();
        let (av, _) = self.planes_mut();
        let mut carry = 0u64;
        for i in 0..av.len() {
            let (s1, c1) = av[i].overflowing_add(bv[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            av[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        self.normalize();
    }

    /// Wrapping subtraction at `max(widths)` bits.
    pub fn sub(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(x) = self.all_x_if_unknown(other, width) {
            return x;
        }
        let mut out = self.zero_extend(width);
        if other.width == width {
            out.sub_known(other);
        } else {
            out.sub_known(&other.zero_extend(width));
        }
        out
    }

    fn sub_known(&mut self, other: &LogicVec) {
        let (bv, _) = other.planes();
        let (av, _) = self.planes_mut();
        let mut borrow = 0u64;
        for i in 0..av.len() {
            let (d1, b1) = av[i].overflowing_sub(bv[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            av[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        self.normalize();
    }

    /// Two's-complement negation (all-`x` when any bit is unknown).
    pub fn neg(&self) -> LogicVec {
        if !self.is_fully_known() {
            return LogicVec::filled_x(self.width);
        }
        let mut out = self.clone();
        let (val, _) = out.planes_mut();
        let mut carry = 1u64;
        for w in val.iter_mut() {
            let (s, c) = (!*w).overflowing_add(carry);
            *w = s;
            carry = c as u64;
        }
        out.normalize();
        out
    }

    /// Wrapping multiplication at `max(widths)` bits.
    pub fn mul(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(x) = self.all_x_if_unknown(other, width) {
            return x;
        }
        if width <= 64 {
            let (av, _) = self.planes();
            let (bv, _) = other.planes();
            return LogicVec::from_u64(width, av[0].wrapping_mul(bv[0]));
        }
        let a = self.zero_extend(width);
        let b = other.zero_extend(width);
        let (av, _) = a.planes();
        let (bv, _) = b.planes();
        let n = av.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            let mut carry = 0u128;
            for j in 0..n - i {
                let cur = acc[i + j] as u128 + (av[i] as u128) * (bv[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
        }
        let mut out = LogicVec::zeros(width);
        out.planes_mut().0.copy_from_slice(&acc);
        out.normalize();
        out
    }

    /// Unsigned division; division by zero yields all-`x` (as in Verilog).
    pub fn div(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(x) = self.all_x_if_unknown(other, width) {
            return x;
        }
        match (self.to_u128(), other.to_u128()) {
            (Some(a), Some(b)) if b != 0 => LogicVec::from_u128(width, a / b),
            (Some(_), Some(_)) => LogicVec::filled_x(width),
            _ => {
                // Wide division: fall back to long division over bits.
                self.wide_divmod(other, width).0
            }
        }
    }

    /// Unsigned remainder; modulo zero yields all-`x`.
    pub fn rem(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        if let Some(x) = self.all_x_if_unknown(other, width) {
            return x;
        }
        match (self.to_u128(), other.to_u128()) {
            (Some(a), Some(b)) if b != 0 => LogicVec::from_u128(width, a % b),
            (Some(_), Some(_)) => LogicVec::filled_x(width),
            _ => self.wide_divmod(other, width).1,
        }
    }

    fn wide_divmod(&self, other: &LogicVec, width: usize) -> (LogicVec, LogicVec) {
        if other.truthy() != Bit::One {
            return (LogicVec::filled_x(width), LogicVec::filled_x(width));
        }
        let a = self.zero_extend(width);
        let b = other.zero_extend(width);
        let mut quot = LogicVec::zeros(width);
        let mut rem = LogicVec::zeros(width);
        for i in (0..width).rev() {
            rem = rem.shl_const(1);
            if a.bit(i) == Bit::One {
                rem.set_bit(0, Bit::One);
            }
            if rem.cmp_unsigned(&b) != std::cmp::Ordering::Less {
                rem = rem.sub(&b);
                quot.set_bit(i, Bit::One);
            }
        }
        (quot, rem)
    }

    fn shl_const(&self, n: usize) -> LogicVec {
        let mut out = LogicVec::zeros(self.width);
        if n < self.width {
            let (sv, su) = self.planes();
            let (dv, du) = out.planes_mut();
            copy_words_range(dv, n, sv, 0, self.width - n);
            copy_words_range(du, n, su, 0, self.width - n);
        }
        out
    }

    fn cmp_unsigned(&self, other: &LogicVec) -> std::cmp::Ordering {
        let width = self.width.max(other.width);
        let last = words_for(width);
        let (av, _) = self.planes();
        let (bv, _) = other.planes();
        for i in (0..last).rev() {
            let a = av.get(i).copied().unwrap_or(0);
            let b = bv.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    }

    fn cmp_signed(&self, other: &LogicVec) -> std::cmp::Ordering {
        let width = self.width.max(other.width).max(1);
        let a = self.sign_extend(width);
        let b = other.sign_extend(width);
        let a_neg = a.bit(width - 1) == Bit::One;
        let b_neg = b.bit(width - 1) == Bit::One;
        match (a_neg, b_neg) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            _ => a.cmp_unsigned(&b),
        }
    }

    /// Relational comparison producing a 1-bit result; `x` if any input
    /// bit is unknown. `signed` selects two's-complement ordering.
    pub fn lt(&self, other: &LogicVec, signed: bool) -> Bit {
        if !self.is_fully_known() || !other.is_fully_known() {
            return Bit::X;
        }
        let ord = if signed {
            self.cmp_signed(other)
        } else {
            self.cmp_unsigned(other)
        };
        if ord == std::cmp::Ordering::Less {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Logical equality `==`: `x` if any compared bit is unknown.
    pub fn eq_logic(&self, other: &LogicVec) -> Bit {
        if !self.is_fully_known() || !other.is_fully_known() {
            return Bit::X;
        }
        if self.cmp_unsigned(other) == std::cmp::Ordering::Equal {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Case equality: exact four-state comparison, always known (how a
    /// `case` label matches its selector).
    pub fn eq_case(&self, other: &LogicVec) -> Bit {
        if self.width == other.width {
            return if self == other { Bit::One } else { Bit::Zero };
        }
        let width = self.width.max(other.width);
        let a = self.zero_extend(width);
        let b = other.zero_extend(width);
        if a == b {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    // ---- shifts ----

    /// Logical shift left by a possibly-unknown amount.
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            None => LogicVec::filled_x(self.width),
            Some(n) => {
                if n as usize >= self.width {
                    LogicVec::zeros(self.width)
                } else {
                    self.shl_const(n as usize)
                }
            }
        }
    }

    /// Logical shift right.
    pub fn shr(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            None => LogicVec::filled_x(self.width),
            Some(n) => {
                let n = n as usize;
                if n >= self.width {
                    LogicVec::zeros(self.width)
                } else {
                    let mut out = LogicVec::zeros(self.width);
                    let (sv, su) = self.planes();
                    let (dv, du) = out.planes_mut();
                    copy_words_range(dv, 0, sv, n, self.width - n);
                    copy_words_range(du, 0, su, n, self.width - n);
                    out
                }
            }
        }
    }

    /// Arithmetic shift right (replicates the MSB).
    pub fn ashr(&self, amount: &LogicVec) -> LogicVec {
        match amount.to_u64() {
            None => LogicVec::filled_x(self.width),
            Some(n) => {
                let msb = self.bit(self.width - 1);
                let n = (n as usize).min(self.width);
                let mut out = LogicVec::zeros(self.width);
                {
                    let (sv, su) = self.planes();
                    let (dv, du) = out.planes_mut();
                    copy_words_range(dv, 0, sv, n, self.width - n);
                    copy_words_range(du, 0, su, n, self.width - n);
                    let (fu, fv) = msb.planes();
                    fill_words_range(dv, self.width - n, n, fv == 1);
                    fill_words_range(du, self.width - n, n, fu == 1);
                }
                out.normalize();
                out
            }
        }
    }

    // ---- formatting ----

    /// Verilog `%b` formatting.
    pub fn to_binary_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| self.bit(i).to_char())
            .collect()
    }

    /// Verilog `%h` formatting: a nibble containing any `x` prints `x`,
    /// any `z` prints `z` (x wins over z when mixed).
    pub fn to_hex_string(&self) -> String {
        let nibbles = self.width.div_ceil(4);
        let mut s = String::with_capacity(nibbles);
        for n in (0..nibbles).rev() {
            let mut v = 0u8;
            let mut has_x = false;
            let mut has_z = false;
            let mut all_z = true;
            for b in 0..4 {
                let i = n * 4 + b;
                if i >= self.width {
                    all_z = false;
                    continue;
                }
                match self.bit(i) {
                    Bit::Zero => all_z = false,
                    Bit::One => {
                        v |= 1 << b;
                        all_z = false;
                    }
                    Bit::X => {
                        has_x = true;
                        all_z = false;
                    }
                    Bit::Z => has_z = true,
                }
            }
            if has_x {
                s.push('x');
            } else if all_z && has_z {
                s.push('z');
            } else if has_z {
                s.push('x');
            } else {
                s.push(char::from_digit(v as u32, 16).expect("nibble in range"));
            }
        }
        s
    }

    /// Verilog `%0d` formatting: decimal, or `x`/`z` when unknown.
    pub fn to_decimal_string(&self) -> String {
        if self.is_fully_known() {
            return self.to_decimal_known();
        }
        if self.is_fully_unknown() {
            // all x -> "x", all z -> "z"
            let all_z = (0..self.width).all(|i| self.bit(i) == Bit::Z);
            if all_z {
                return "z".to_string();
            }
            let all_x = (0..self.width).all(|i| self.bit(i) == Bit::X);
            if all_x {
                return "x".to_string();
            }
        }
        "X".to_string()
    }

    fn to_decimal_known(&self) -> String {
        if let Some(v) = self.to_u128() {
            return v.to_string();
        }
        // Arbitrary width: repeated division by 10^19.
        let mut words: Vec<u64> = self.planes().0.to_vec();
        let mut digits = String::new();
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        loop {
            let mut rem: u64 = 0;
            let mut all_zero = true;
            for w in words.iter_mut().rev() {
                let cur = ((rem as u128) << 64) | (*w as u128);
                *w = (cur / CHUNK as u128) as u64;
                rem = (cur % CHUNK as u128) as u64;
                if *w != 0 {
                    all_zero = false;
                }
            }
            if all_zero {
                digits.insert_str(0, &rem.to_string());
                break;
            } else {
                digits.insert_str(0, &format!("{rem:019}"));
            }
        }
        digits
    }
}

/// AND on one word of each plane: `(known-ones, unknowns)`.
#[inline]
fn and_words(av: u64, au: u64, bv: u64, bu: u64) -> (u64, u64) {
    // treat z as x: a bit is "one" if val&!unk, "zero" if !val&!unk
    let a_zero = !av & !au;
    let b_zero = !bv & !bu;
    let a_one = av & !au;
    let b_one = bv & !bu;
    let zero = a_zero | b_zero;
    let one = a_one & b_one;
    let unk = !(zero | one);
    (one, unk)
}

/// OR on one word of each plane.
#[inline]
fn or_words(av: u64, au: u64, bv: u64, bu: u64) -> (u64, u64) {
    let a_one = av & !au;
    let b_one = bv & !bu;
    let a_zero = !av & !au;
    let b_zero = !bv & !bu;
    let one = a_one | b_one;
    let zero = a_zero & b_zero;
    let unk = !(zero | one);
    (one, unk)
}

/// XOR on one word of each plane.
#[inline]
fn xor_words(av: u64, au: u64, bv: u64, bu: u64) -> (u64, u64) {
    let unk = au | bu;
    let one = (av ^ bv) & !unk;
    (one, unk)
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width, self.to_binary_string())
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

impl fmt::Binary for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_binary_string())
    }
}

impl fmt::LowerHex for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex_string())
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> Self {
        LogicVec::from_bool(b)
    }
}

impl From<Bit> for LogicVec {
    fn from(b: Bit) -> Self {
        LogicVec::from_bit(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut v = LogicVec::zeros(130);
        for (i, b) in [Bit::One, Bit::X, Bit::Z, Bit::Zero]
            .iter()
            .cycle()
            .take(130)
            .enumerate()
        {
            v.set_bit(i, *b);
        }
        for (i, b) in [Bit::One, Bit::X, Bit::Z, Bit::Zero]
            .iter()
            .cycle()
            .take(130)
            .enumerate()
        {
            assert_eq!(v.bit(i), *b, "bit {i}");
        }
    }

    #[test]
    fn from_u64_masks_width() {
        let v = LogicVec::from_u64(4, 0xff);
        assert_eq!(v.to_u64(), Some(0xf));
    }

    #[test]
    fn filled_x_unknown() {
        let v = LogicVec::filled_x(7);
        assert!(!v.is_fully_known());
        assert!(v.is_fully_unknown());
        assert_eq!(v.to_u64(), None);
        assert_eq!(v.to_decimal_string(), "x");
    }

    #[test]
    fn add_wraps() {
        let a = LogicVec::from_u64(4, 0xf);
        let b = LogicVec::from_u64(4, 1);
        assert_eq!(a.add(&b).to_u64(), Some(0));
    }

    #[test]
    fn add_multiword_carry() {
        let a = LogicVec::from_u128(128, u64::MAX as u128);
        let b = LogicVec::from_u64(128, 1);
        assert_eq!(a.add(&b).to_u128(), Some(1u128 << 64));
    }

    #[test]
    fn sub_and_neg() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 7);
        assert_eq!(a.sub(&b).to_u64(), Some(0xfe)); // -2 mod 256
        assert_eq!(b.neg().to_u64(), Some(0xf9));
    }

    #[test]
    fn mul_wide() {
        let a = LogicVec::from_u64(64, u64::MAX);
        let b = LogicVec::from_u64(64, 3);
        assert_eq!(a.mul(&b).to_u64(), Some(u64::MAX.wrapping_mul(3)));
    }

    #[test]
    fn mul_multiword() {
        let a = LogicVec::from_u128(128, u128::MAX / 5);
        let b = LogicVec::from_u64(128, 11);
        assert_eq!(a.mul(&b).to_u128(), Some((u128::MAX / 5).wrapping_mul(11)));
    }

    #[test]
    fn div_rem() {
        let a = LogicVec::from_u64(8, 23);
        let b = LogicVec::from_u64(8, 5);
        assert_eq!(a.div(&b).to_u64(), Some(4));
        assert_eq!(a.rem(&b).to_u64(), Some(3));
        let z = LogicVec::zeros(8);
        assert!(!a.div(&z).is_fully_known());
    }

    #[test]
    fn arithmetic_x_poisons() {
        let a = LogicVec::filled_x(8);
        let b = LogicVec::from_u64(8, 3);
        assert!(a.add(&b).is_fully_unknown());
        assert!(b.sub(&a).is_fully_unknown());
        assert!(a.mul(&b).is_fully_unknown());
    }

    #[test]
    fn bitwise_x_rules() {
        let x = LogicVec::filled_x(1);
        let one = LogicVec::from_u64(1, 1);
        let zero = LogicVec::zeros(1);
        assert_eq!(zero.and(&x).bit(0), Bit::Zero);
        assert_eq!(one.and(&x).bit(0), Bit::X);
        assert_eq!(one.or(&x).bit(0), Bit::One);
        assert_eq!(zero.or(&x).bit(0), Bit::X);
        assert_eq!(one.xor(&x).bit(0), Bit::X);
        assert_eq!(x.not().bit(0), Bit::X);
    }

    #[test]
    fn z_treated_as_x_in_gates() {
        let z = LogicVec::filled_z(1);
        let one = LogicVec::from_u64(1, 1);
        assert_eq!(one.and(&z).bit(0), Bit::X);
        assert_eq!(one.or(&z).bit(0), Bit::One);
    }

    #[test]
    fn reductions() {
        let v = LogicVec::from_u64(4, 0b1011);
        assert_eq!(v.reduce_and(), Bit::Zero);
        assert_eq!(v.reduce_or(), Bit::One);
        assert_eq!(v.reduce_xor(), Bit::One);
        let ones = LogicVec::ones(4);
        assert_eq!(ones.reduce_and(), Bit::One);
        let mut withx = v.clone();
        withx.set_bit(2, Bit::X);
        assert_eq!(withx.reduce_or(), Bit::One); // known one dominates
        assert_eq!(withx.reduce_xor(), Bit::X);
        // Wide reduction across the word boundary.
        let wide_ones = LogicVec::ones(100);
        assert_eq!(wide_ones.reduce_and(), Bit::One);
        let mut wide = LogicVec::ones(100);
        wide.set_bit(90, Bit::Zero);
        assert_eq!(wide.reduce_and(), Bit::Zero);
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 0x80);
        let b = LogicVec::from_u64(8, 0x01);
        assert_eq!(a.lt(&b, false), Bit::Zero);
        assert_eq!(a.lt(&b, true), Bit::One); // 0x80 = -128 signed
        assert_eq!(a.eq_logic(&a.clone()), Bit::One);
        assert_eq!(a.eq_logic(&b), Bit::Zero);
        let x = LogicVec::filled_x(8);
        assert_eq!(a.eq_logic(&x), Bit::X);
        assert_eq!(x.eq_case(&LogicVec::filled_x(8)), Bit::One);
    }

    #[test]
    fn shifts() {
        let v = LogicVec::from_u64(8, 0b1001_0110);
        assert_eq!(v.shl(&LogicVec::from_u64(3, 2)).to_u64(), Some(0b0101_1000));
        assert_eq!(v.shr(&LogicVec::from_u64(3, 2)).to_u64(), Some(0b0010_0101));
        assert_eq!(
            v.ashr(&LogicVec::from_u64(3, 2)).to_u64(),
            Some(0b1110_0101)
        );
        assert_eq!(v.shl(&LogicVec::from_u64(8, 200)).to_u64(), Some(0));
        assert_eq!(v.ashr(&LogicVec::from_u64(8, 200)).to_u64(), Some(0xff));
    }

    #[test]
    fn shifts_straddle_word_boundary() {
        let mut v = LogicVec::zeros(96);
        v.set_bit(0, Bit::One);
        v.set_bit(70, Bit::X);
        let left = v.shl(&LogicVec::from_u64(8, 63));
        assert_eq!(left.bit(63), Bit::One);
        assert_eq!(left.bit(0), Bit::Zero);
        // x at 70 shifted to 133, off the top of the 96-bit vector.
        assert_eq!(left.bit(70), Bit::Zero);
        let right = left.shr(&LogicVec::from_u64(8, 63));
        assert_eq!(right.bit(0), Bit::One);
        assert_eq!(right.bit(70), Bit::Zero);
        // A shift that keeps the x in range moves the x plane with it.
        assert_eq!(v.shl(&LogicVec::from_u64(8, 20)).bit(90), Bit::X);
    }

    #[test]
    fn arithmetic_shift_known_case_shift18() {
        // The paper's shift18 demo: 64-bit arithmetic shift right by 8.
        let q = LogicVec::from_u64(64, 0x8000_0000_0000_0000);
        let shifted = q.ashr(&LogicVec::from_u64(8, 8));
        assert_eq!(shifted.to_u64(), Some(0xff80_0000_0000_0000));
    }

    #[test]
    fn concat_repeat_slice() {
        let a = LogicVec::from_u64(4, 0xa);
        let b = LogicVec::from_u64(4, 0x5);
        let c = a.concat(&b);
        assert_eq!(c.width(), 8);
        assert_eq!(c.to_u64(), Some(0xa5));
        let r = b.repeat(3);
        assert_eq!(r.width(), 12);
        assert_eq!(r.to_u64(), Some(0x555));
        assert_eq!(c.slice(4, 4).to_u64(), Some(0xa));
        // out-of-range part select reads x
        assert_eq!(c.slice(6, 4).bit(3), Bit::X);
    }

    #[test]
    fn concat_across_word_boundary() {
        let hi = LogicVec::from_u64(40, 0xde_adbe_ad11);
        let lo = LogicVec::from_u64(40, 0xbe_efca_fe22);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 80);
        assert_eq!(
            c.to_u128(),
            Some(((0xde_adbe_ad11u128) << 40) | 0xbe_efca_fe22)
        );
        assert_eq!(c.slice(40, 40).to_u64(), Some(0xde_adbe_ad11));
        assert_eq!(c.slice(0, 40).to_u64(), Some(0xbe_efca_fe22));
    }

    #[test]
    fn extends() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.zero_extend(8).to_u64(), Some(0b0000_1010));
        assert_eq!(v.sign_extend(8).to_u64(), Some(0b1111_1010));
        assert_eq!(v.sign_extend(2).to_u64(), Some(0b10));
        let mut x = v.clone();
        x.set_bit(3, Bit::X);
        assert_eq!(x.sign_extend(6).bit(5), Bit::X);
    }

    #[test]
    fn extend_across_word_boundary() {
        let v = LogicVec::from_u64(64, 0x8000_0000_0000_0001);
        let s = v.sign_extend(100);
        assert_eq!(s.bit(99), Bit::One);
        assert_eq!(s.bit(64), Bit::One);
        assert_eq!(s.bit(0), Bit::One);
        assert_eq!(s.bit(1), Bit::Zero);
        let z = v.zero_extend(100);
        assert_eq!(z.bit(99), Bit::Zero);
        assert_eq!(z.bit(63), Bit::One);
        // Truncating back round-trips.
        assert_eq!(s.zero_extend(64), v);
    }

    #[test]
    fn to_i64_signed() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.to_i64(), Some(-6));
        let w = LogicVec::from_u64(4, 0b0101);
        assert_eq!(w.to_i64(), Some(5));
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::zeros(8).truthy(), Bit::Zero);
        assert_eq!(LogicVec::from_u64(8, 2).truthy(), Bit::One);
        assert_eq!(LogicVec::filled_x(8).truthy(), Bit::X);
        let mut v = LogicVec::filled_x(8);
        v.set_bit(3, Bit::One);
        assert_eq!(v.truthy(), Bit::One);
    }

    #[test]
    fn formatting() {
        let v = LogicVec::from_u64(8, 0xa5);
        assert_eq!(v.to_binary_string(), "10100101");
        assert_eq!(v.to_hex_string(), "a5");
        assert_eq!(v.to_decimal_string(), "165");
        let mut w = v.clone();
        w.set_bit(0, Bit::X);
        assert_eq!(w.to_hex_string(), "ax");
        assert_eq!(w.to_decimal_string(), "X");
        assert_eq!(format!("{:b}", v), "10100101");
        assert_eq!(format!("{:x}", v), "a5");
    }

    #[test]
    fn decimal_wide() {
        let v = LogicVec::from_u128(128, u128::MAX);
        assert_eq!(v.to_decimal_string(), u128::MAX.to_string());
        let big = LogicVec::ones(192);
        // 2^192 - 1
        assert_eq!(
            big.to_decimal_string(),
            "6277101735386680763835789423207666416102355444464034512895"
        );
    }

    #[test]
    fn from_bits_msb_first_order() {
        let v = LogicVec::from_bits_msb_first(&[Bit::One, Bit::Zero, Bit::X, Bit::One]);
        assert_eq!(v.width(), 4);
        assert_eq!(v.bit(3), Bit::One);
        assert_eq!(v.bit(2), Bit::Zero);
        assert_eq!(v.bit(1), Bit::X);
        assert_eq!(v.bit(0), Bit::One);
    }

    // ---- representation invariant ----

    #[test]
    fn small_widths_stay_inline_through_ops() {
        let a = LogicVec::from_u64(64, 0xdead_beef_dead_beef);
        let b = LogicVec::from_u64(64, 0x1234_5678_9abc_def0);
        assert!(a.is_inline());
        assert!(a.add(&b).is_inline());
        assert!(a.and(&b).is_inline());
        assert!(a.not().is_inline());
        assert!(a.slice(8, 32).is_inline());
        assert!(a.mul(&b).is_inline());
        assert!(a.shl(&LogicVec::from_u64(8, 9)).is_inline());
        assert!(LogicVec::filled_x(64).is_inline());
        assert!(a.zero_extend(32).is_inline());
        assert!(!a.zero_extend(65).is_inline());
        assert!(a.concat(&b).width() == 128 && !a.concat(&b).is_inline());
    }

    // ---- in-place ops agree with their value-returning counterparts ----

    fn sample_vectors(width: usize) -> Vec<LogicVec> {
        let mut out = vec![
            LogicVec::zeros(width),
            LogicVec::ones(width),
            LogicVec::filled_x(width),
            LogicVec::filled_z(width),
        ];
        let mut v = LogicVec::zeros(width);
        for i in 0..width {
            v.set_bit(
                i,
                match i % 4 {
                    0 => Bit::One,
                    1 => Bit::Zero,
                    2 => Bit::X,
                    _ => Bit::Z,
                },
            );
        }
        out.push(v);
        let mut k = LogicVec::zeros(width);
        for i in (0..width).step_by(3) {
            k.set_bit(i, Bit::One);
        }
        out.push(k);
        out
    }

    #[test]
    fn assign_resize_matches_resize() {
        for src_w in [1, 5, 63, 64, 65, 90, 128] {
            for dst_w in [1, 5, 63, 64, 65, 90, 128] {
                for signed in [false, true] {
                    for v in sample_vectors(src_w) {
                        let mut dst = LogicVec::zeros(dst_w);
                        dst.assign_resize(&v, signed);
                        assert_eq!(
                            dst,
                            v.resize(dst_w, signed),
                            "resize {src_w}->{dst_w} signed={signed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn assign_slice_ext_matches_slice_zero_extend() {
        for src_w in [4, 64, 65, 100] {
            for v in sample_vectors(src_w) {
                for lo in [0usize, 3, 63, 64, 99, 120] {
                    for w in [1usize, 4, 64, 80] {
                        for ctx in [1usize, 4, 64, 80, 96] {
                            let mut dst = LogicVec::ones(ctx);
                            dst.assign_slice_ext(&v, lo, w);
                            assert_eq!(
                                dst,
                                v.slice(lo, w).zero_extend(ctx),
                                "slice src_w={src_w} lo={lo} w={w} ctx={ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn write_range_detects_change() {
        let mut v = LogicVec::from_u64(8, 0x00);
        let bits = LogicVec::from_u64(4, 0xf);
        assert!(v.write_range(2, &bits, 4));
        assert_eq!(v.to_u64(), Some(0b0011_1100));
        // Re-writing the same bits is not a change.
        assert!(!v.write_range(2, &bits, 4));
        // Out-of-range low bit writes nothing.
        assert!(!v.write_range(8, &bits, 4));
        // Clipped at the top.
        let mut w = LogicVec::zeros(8);
        assert!(w.write_range(6, &LogicVec::ones(4), 4));
        assert_eq!(w.to_u64(), Some(0b1100_0000));
        // Wide, straddling the word boundary, with x planes.
        let mut wide = LogicVec::zeros(100);
        let patch = LogicVec::filled_x(10);
        assert!(wide.write_range(60, &patch, 10));
        assert_eq!(wide.bit(59), Bit::Zero);
        assert_eq!(wide.bit(60), Bit::X);
        assert_eq!(wide.bit(69), Bit::X);
        assert_eq!(wide.bit(70), Bit::Zero);
        assert!(!wide.write_range(60, &patch, 10));
    }

    #[test]
    fn copy_from_both_representations() {
        let a = LogicVec::from_u64(33, 0x1_2345_6789);
        let mut b = LogicVec::zeros(33);
        b.copy_from(&a);
        assert_eq!(a, b);
        let wa = LogicVec::from_u128(100, 0x1234_5678_9abc_def0_1122);
        let mut wb = LogicVec::filled_x(100);
        wb.copy_from(&wa);
        assert_eq!(wa, wb);
    }
}
