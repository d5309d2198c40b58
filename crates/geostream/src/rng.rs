//! The workspace's one PRNG: deterministic, seedable, persistable.
//!
//! Every seeded stream in the repository — the synthetic datasets and
//! query workloads, the sampling estimators, the property-test harness —
//! draws from [`StreamRng`], so the streams the equivalence suites and the
//! benchmark's `output_checksum` rest on come from code this repository
//! owns. The sampling estimators are also history-dependent: replaying the
//! same stream through the same seed must reproduce the same reservoir
//! bit-for-bit, *including after a snapshot/restore mid-stream*, so the
//! full generator state ([`RngState`]) round-trips through
//! [`crate::persist`].
//!
//! [`StreamRng`] is a ChaCha12 generator whose every call shape is
//! **bit-compatible with `rand 0.8`'s `StdRng`**, which the workspace used
//! before it owned its generator; the golden vectors in the tests below
//! were recorded from that implementation and pin the sequences.
//!
//! Compatibility notes:
//! - `seed_from_u64` uses `rand_core 0.6`'s PCG32-based seed expansion.
//! - Output words are buffered four ChaCha blocks (64 `u32`s) at a
//!   time, and `next_u64` reproduces `BlockRng`'s block-straddling
//!   behavior at `index == 63`.
//! - On x86-64 the refill computes the four blocks side by side, one
//!   block per SSE2 lane (`sse2::refill`); the scalar `block12` is the
//!   other targets' path and the kernel's test oracle.
//! - A `u32` range draws one `next_u32`; `u64`, `usize` and `f64` shapes
//!   draw one `next_u64` (`rand 0.8` on a 64-bit target).
//! - `gen_range_*` reproduce `UniformInt::sample_single` /
//!   `UniformFloat::sample_single` exactly, including the rejection zone
//!   computation and the scale-decrement loop; the `_inclusive` variants
//!   reproduce `sample_single_inclusive` (full-domain case for integers,
//!   `max_rand` scale loop for floats); `gen_bool` is `Bernoulli`'s 64-bit
//!   fixed-point compare.

use core::ops::{Range, RangeInclusive};

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha12 block (6 double rounds) keyed like `rand_chacha`:
/// 64-bit counter in words 12–13, zero nonce.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
fn block12(key: &[u32; 8], counter: u64, out: &mut [u32]) {
    let mut s: [u32; 16] = [0; 16];
    s[..4].copy_from_slice(&CONSTANTS);
    s[4..12].copy_from_slice(key);
    s[12] = counter as u32;
    s[13] = (counter >> 32) as u32;
    s[14] = 0;
    s[15] = 0;
    let init = s;
    for _ in 0..6 {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for i in 0..16 {
        out[i] = s[i].wrapping_add(init[i]);
    }
}

/// The four-block refill in SSE2 lanes: state word `i` of blocks 0–3 sits
/// in the four lanes of vector `i`, so each quarter round runs on four
/// blocks at once. Value-only intrinsics: nothing here reads or writes
/// through a pointer.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::CONSTANTS;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si64, _mm_or_si128, _mm_set1_epi32, _mm_setr_epi32,
        _mm_shufflehi_epi16, _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// A `u32` word in every lane.
    #[target_feature(enable = "sse2")]
    fn splat(word: u32) -> __m128i {
        _mm_set1_epi32(word as i32)
    }

    /// Lane-wise `rotate_left(L)`, with `R = 32 − L`.
    #[target_feature(enable = "sse2")]
    fn rotl<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// Lane-wise `rotate_left(16)`: swap the 16-bit halves of each lane.
    #[target_feature(enable = "sse2")]
    fn rotl16(x: __m128i) -> __m128i {
        _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>(x))
    }

    #[target_feature(enable = "sse2")]
    fn quarter(s: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl16(_mm_xor_si128(s[d], s[a]));
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl::<12, 20>(_mm_xor_si128(s[b], s[c]));
        s[a] = _mm_add_epi32(s[a], s[b]);
        s[d] = rotl::<8, 24>(_mm_xor_si128(s[d], s[a]));
        s[c] = _mm_add_epi32(s[c], s[d]);
        s[b] = rotl::<7, 25>(_mm_xor_si128(s[b], s[c]));
    }

    /// Blocks `counter .. counter + 4` into `out`, block `b` at
    /// `out[16 b ..]` — the words four `block12` calls write.
    #[target_feature(enable = "sse2")]
    pub(super) fn refill(key: &[u32; 8], counter: u64, out: &mut [u32; 64]) {
        let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|b| counter.wrapping_add(b));
        let lanes = |f: fn(u64) -> u32| {
            _mm_setr_epi32(f(c0) as i32, f(c1) as i32, f(c2) as i32, f(c3) as i32)
        };
        let zero = splat(0);
        let init: [__m128i; 16] = [
            splat(CONSTANTS[0]),
            splat(CONSTANTS[1]),
            splat(CONSTANTS[2]),
            splat(CONSTANTS[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            lanes(|c| c as u32),
            lanes(|c| (c >> 32) as u32),
            zero,
            zero,
        ];
        let mut s = init;
        for _ in 0..6 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for i in 0..16 {
            let word = _mm_add_epi32(s[i], init[i]);
            // Lanes 0 and 1, then lanes 2 and 3, as two 64-bit halves.
            let low = _mm_cvtsi128_si64(word) as u64;
            let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(word, word)) as u64;
            out[i] = low as u32;
            out[16 + i] = (low >> 32) as u32;
            out[32 + i] = high as u32;
            out[48 + i] = (high >> 32) as u32;
        }
    }
}

/// The complete internal state of a [`StreamRng`], exposed so the
/// persistence layer can serialize a generator mid-sequence and resume
/// it exactly where it left off.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RngState {
    pub key: [u32; 8],
    pub counter: u64,
    pub buf: [u32; 64],
    pub index: usize,
}

/// ChaCha12 PRNG, bit-compatible with `rand 0.8`'s `StdRng` (see the
/// module docs), with extractable state for snapshot/restore.
#[derive(Clone, Debug)]
pub struct StreamRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 64],
    index: usize,
}

impl StreamRng {
    /// `rand_core 0.6`'s PCG32-based seed expansion, bit-exact.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks(4).enumerate() {
            // LINT-ALLOW(no-panic): chunks(4) over the 32-byte seed yields
            // exact 4-byte slices, so the array conversion cannot fail
            key[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        StreamRng {
            key,
            counter: 0,
            buf: [0; 64],
            index: 64, // force refill on first use
        }
    }

    pub fn state(&self) -> RngState {
        RngState {
            key: self.key,
            counter: self.counter,
            buf: self.buf,
            index: self.index,
        }
    }

    pub fn from_state(state: RngState) -> Self {
        StreamRng {
            key: state.key,
            counter: state.counter,
            buf: state.buf,
            index: state.index.min(65),
        }
    }

    /// The next four blocks into `buf`.
    fn refill(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        #[allow(unsafe_code)]
        // SAFETY: compiled only for targets that enable SSE2, so the CPU
        // running this has every instruction the kernel uses.
        unsafe {
            sse2::refill(&self.key, self.counter, &mut self.buf);
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        for (b, block) in (0u64..).zip(self.buf.chunks_exact_mut(16)) {
            block12(&self.key, self.counter.wrapping_add(b), block);
        }
        self.counter = self.counter.wrapping_add(4);
    }

    pub fn next_u32(&mut self) -> u32 {
        if self.index >= 64 {
            self.refill();
            self.index = 0;
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Mirrors `rand_core`'s `BlockRng::next_u64`, including the
    /// block-straddling case at `index == 63`.
    pub fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < 63 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= 64 {
            self.refill();
            self.index = 2;
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            let x = u64::from(self.buf[63]);
            self.refill();
            self.index = 1;
            (u64::from(self.buf[0]) << 32) | x
        }
    }

    /// `rand 0.8` `Standard` for `f64`: 53-bit multiply.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `rand 0.8` `UniformInt::<u64>::sample_single`: widening multiply
    /// with a bitshift-computed rejection zone.
    pub fn gen_range_u64(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end.wrapping_sub(range.start);
        let zone = (span << span.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let prod = (v as u128) * (span as u128);
            let hi = (prod >> 64) as u64;
            let lo = prod as u64;
            if lo <= zone {
                return range.start.wrapping_add(hi);
            }
        }
    }

    /// `UniformInt::<usize>::sample_single` (64-bit targets share the
    /// `u64` path in `rand 0.8`).
    pub fn gen_range_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range_u64(range.start as u64..range.end as u64) as usize
    }

    /// The uniform-float draw of `rand 0.8`'s ranges: a value in `[1, 2)`
    /// from 52 random mantissa bits, shifted down to `[0, 1)`.
    fn mantissa_f64(&mut self) -> f64 {
        f64::from_bits((self.next_u64() >> 12) | 0x3FF0_0000_0000_0000u64) - 1.0
    }

    /// `rand 0.8` `UniformFloat::<f64>::sample_single`: a mantissa draw,
    /// rescaled, with the scale-decrement loop on overshoot.
    pub fn gen_range_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "cannot sample empty range");
        let mut scale = range.end - range.start;
        loop {
            let res = self.mantissa_f64() * scale + range.start;
            if res < range.end {
                return res;
            }
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// `UniformInt::<u32>::sample_single`: the 32-bit twin of
    /// [`gen_range_u64`](Self::gen_range_u64), drawing one `next_u32` per
    /// attempt (also serves `i32` ranges that start at zero).
    pub fn gen_range_u32(&mut self, range: Range<u32>) -> u32 {
        assert!(range.start < range.end, "cannot sample empty range");
        let span = range.end.wrapping_sub(range.start);
        let zone = (span << span.leading_zeros()).wrapping_sub(1);
        loop {
            let prod = u64::from(self.next_u32()) * u64::from(span);
            if prod as u32 <= zone {
                return range.start.wrapping_add((prod >> 32) as u32);
            }
        }
    }

    /// `UniformInt::<u64>::sample_single_inclusive`; a range covering the
    /// whole domain is one raw `next_u64`.
    pub fn gen_range_u64_inclusive(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (start, end) = (*range.start(), *range.end());
        assert!(start <= end, "cannot sample empty range");
        match end.wrapping_sub(start).wrapping_add(1) {
            0 => self.next_u64(),
            span => start.wrapping_add(self.gen_range_u64(0..span)),
        }
    }

    /// `usize` twin of [`gen_range_u64_inclusive`](Self::gen_range_u64_inclusive).
    pub fn gen_range_usize_inclusive(&mut self, range: RangeInclusive<usize>) -> usize {
        self.gen_range_u64_inclusive(*range.start() as u64..=*range.end() as u64) as usize
    }

    /// `UniformFloat::<f64>::sample_single_inclusive`: the scale is shrunk
    /// until the largest drawable value lands on `end`, then one draw.
    pub fn gen_range_f64_inclusive(&mut self, range: RangeInclusive<f64>) -> f64 {
        let (low, high) = (*range.start(), *range.end());
        assert!(low <= high, "cannot sample empty range");
        let max_rand = 1.0 - f64::EPSILON / 2.0;
        let mut scale = (high - low) / max_rand;
        while scale * max_rand + low > high {
            scale = f64::from_bits(scale.to_bits() - 1);
        }
        self.mantissa_f64() * scale + low
    }

    /// `rand 0.8` `Bernoulli`: 64-bit fixed-point compare; `p == 1.0`
    /// consumes nothing.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
        if p == 1.0 {
            return true;
        }
        const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
        self.next_u64() < (p * SCALE) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Shape = fn(&mut StreamRng) -> u64;

    /// Every public call shape, folded to a `u64` per draw. The two
    /// large-span ranges reject about half their draws, so the rejection
    /// loops are on the recorded path too.
    const SHAPES: [Shape; 13] = [
        |r| u64::from(r.next_u32()),
        |r| r.next_u64(),
        |r| r.gen_f64().to_bits(),
        |r| r.gen_range_u64(5..1_000_003),
        |r| r.gen_range_u64(0..(1 << 63) + 1),
        |r| r.gen_range_usize(0..7) as u64,
        |r| r.gen_range_f64(f64::MIN_POSITIVE..1.0).to_bits(),
        |r| u64::from(r.gen_range_u32(100..200)),
        |r| u64::from(r.gen_range_u32(0..(1 << 31) + 1)),
        |r| r.gen_range_u64_inclusive(0..=500),
        |r| r.gen_range_usize_inclusive(1..=3) as u64,
        |r| r.gen_range_f64_inclusive(-180.0..=180.0).to_bits(),
        |r| u64::from(r.gen_bool(0.3)),
    ];

    /// `(seed, rows)`: the first 16 draws of each of [`SHAPES`] from a fresh
    /// generator, as `rand 0.8`'s `StdRng` produced them. Recorded at the
    /// last commit that still depended on the `rand` crate.
    #[rustfmt::skip]
    const GOLDEN: [(u64, [[u64; 16]; 13]); 5] = [
        (0x0, [
            [0xcd2c6f7f, 0xbb2a3fb2, 0x8e27697b, 0xc6017c94, 0xcf310a16, 0x069dc102, 0xabe5f6d0, 0x958b761d,
             0xdee17b11, 0x431d9d54, 0x1f71c422, 0xc5a0ef11, 0x12037913, 0x37fc854f, 0xc9ff61c7, 0xcb30ce1a],
            [0xbb2a3fb2cd2c6f7f, 0xc6017c948e27697b, 0x069dc102cf310a16, 0x958b761dabe5f6d0,
             0x431d9d54dee17b11, 0xc5a0ef111f71c422, 0x37fc854f12037913, 0xcb30ce1ac9ff61c7,
             0xbfd4a4ae9e0d7fac, 0xf80c4de387b83854, 0xff0ea77dd9987f7e, 0x23ae2c7b48501800,
             0x1ce4b87b0bd4b7bb, 0xf6ff78effd960655, 0x0ca57b6234bb13f0, 0x6cfacf846e3bd6a2],
            [0x3fe76547f659a58d, 0x3fe8c02f9291c4ed, 0x3f9a77040b3cc420, 0x3fe2b16ec3b57cbe,
             0x3fd0c7675537b85e, 0x3fe8b41de223ee38, 0x3fcbfe42a78901bc, 0x3fe96619c3593fec,
             0x3fe7fa9495d3c1af, 0x3fef0189bc70f707, 0x3fefe1d4efbb330f, 0x3fc1d7163da4280c,
             0x3fbce4b87b0bd4b0, 0x3feedfef1dffb2c0, 0x3fa94af6c4697620, 0x3fdb3eb3e11b8ef4],
            [731116, 773463, 25849, 584163, 262175, 771990, 218701, 793716, 749341, 968940, 996320, 139381, 112869, 964838, 425706, 460583],
            [0x5d951fd9669637c0, 0x6300be4a4713b4be, 0x034ee0816798850b, 0x6598670d64ffb0e4,
             0x11d7163da4280c00, 0x7b7fbc77fecb032b, 0x0652bdb11a5d89f8, 0x367d67c2371deb51,
             0x3af44631d370994d, 0x1d0faaf87f6aa75d, 0x4798335e32bc0e7f, 0x40668a5409af9f7a,
             0x51a1c5e870af2747, 0x3d4af004dfab826c, 0x70234b73ac15c918, 0x0817f8145db100ab],
            [5, 5, 0, 4, 1, 5, 1, 5, 5, 6, 0, 6, 0, 3, 6, 1],
            [0x3fe76547f659a58c, 0x3fe8c02f9291c4ec, 0x3f9a77040b3cc400, 0x3fe2b16ec3b57cbe,
             0x3fd0c7675537b85c, 0x3fe8b41de223ee38, 0x3fcbfe42a78901b8, 0x3fe96619c3593fec,
             0x3fe7fa9495d3c1ae, 0x3fef0189bc70f706, 0x3fefe1d4efbb330e, 0x3fc1d7163da42808,
             0x3fbce4b87b0bd4b0, 0x3feedfef1dffb2c0, 0x3fa94af6c4697620, 0x3fdb3eb3e11b8ef4],
            [180, 173, 155, 177, 102, 167, 158, 187, 126, 112, 177, 107, 179, 161, 153, 199],
            [0x669637c0, 0x4713b4be, 0x034ee081, 0x4ac5bb0f, 0x6f70bd89, 0x218eceaa, 0x0fb8e211, 0x62d07789,
             0x64ffb0e4, 0x7c0626f2, 0x7f8753bf, 0x24280c00, 0x7ecb032b, 0x7b7fbc78, 0x1a5d89f8, 0x0652bdb1],
            [366, 387, 12, 292, 131, 386, 109, 397, 375, 485, 499, 69, 56, 483, 24, 213],
            [3, 3, 1, 3, 1, 3, 3, 1, 1, 1, 2, 2, 1, 2, 1, 3],
            [0x4054ccda64dc219c, 0x40589c85cc39f9dc, 0xc065564512819463, 0x403e4c1e19b9bb60,
             0xc0556796b029a4be, 0x40587a940c050e00, 0xc05951392233aaca, 0x405a6f28756b03cc,
             0x405670c1e56390bc, 0x40651a29b0fedb62, 0x40665593711f3fce, 0xc0603a622e5449ed,
             0xc0616bcb925eeb9d, 0x4064eae8422f9360, 0xc06446e94fbcbb1e, 0xc03abf4c2dc4fbe0],
            [0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0],
        ]),
        (0x1, [
            [0xd3301861, 0xf9681a64, 0xcc0d694a, 0xb0f4d125, 0x3248c9da, 0x6d8fc15a, 0x376425d3, 0x2cf33517,
             0xc53d7454, 0x412a4de2, 0x8495153b, 0xf66d22c1, 0xcac4cfec, 0x637bcda8, 0xff56cbc7, 0xb560cd66],
            [0xf9681a64d3301861, 0xb0f4d125cc0d694a, 0x6d8fc15a3248c9da, 0x2cf33517376425d3,
             0x412a4de2c53d7454, 0xf66d22c18495153b, 0x637bcda8cac4cfec, 0xb560cd66ff56cbc7,
             0x85353f1c1cb3b3a6, 0x62b019a827e588ea, 0x33b2740d8a4880c6, 0x0fef89656956c4dc,
             0xef846158cf4735f1, 0x6ec89502cdff9aa3, 0x31bcd62524bd4009, 0x2460de355d10546e],
            [0x3fef2d034c9a6603, 0x3fe61e9a24b981ad, 0x3fdb63f0568c9232, 0x3fc6799a8b9bb210,
             0x3fd04a9378b14f5c, 0x3feecda4583092a2, 0x3fd8def36a32b132, 0x3fe6ac19acdfead9,
             0x3fe0a6a7e3839676, 0x3fd8ac066a09f962, 0x3fc9d93a06c52440, 0x3fafdf12cad2ad80,
             0x3fedf08c2b19e8e6, 0x3fdbb22540b37fe6, 0x3fc8de6b12925ea0, 0x3fc2306f1aae8828],
            [974247, 691239, 427978, 175590, 254556, 962605, 388612, 708511, 520347, 385503, 201946, 62253, 935616, 432752, 194292, 142107],
            [0x7cb40d3269980c31, 0x36c7e0ad192464ed, 0x209526f1629eba2a, 0x7b369160c24a8a9e,
             0x31bde6d4656267f6, 0x5ab066b37fab65e4, 0x31580cd413f2c475, 0x19d93a06c5244063,
             0x07f7c4b2b4ab626e, 0x77c230ac67a39af9, 0x12306f1aae882a37, 0x723689fd9acd3b65,
             0x31fc7f0bbfaafa52, 0x7946cdfc9f665702, 0x219aa98f2ffb0035, 0x1855ab5b421f6791],
            [6, 4, 1, 1, 6, 2, 3, 2, 1, 0, 6, 3, 1, 6, 2, 6],
            [0x3fef2d034c9a6602, 0x3fe61e9a24b981ac, 0x3fdb63f0568c9230, 0x3fc6799a8b9bb210,
             0x3fd04a9378b14f5c, 0x3feecda4583092a2, 0x3fd8def36a32b130, 0x3fe6ac19acdfead8,
             0x3fe0a6a7e3839676, 0x3fd8ac066a09f960, 0x3fc9d93a06c52440, 0x3fafdf12cad2ad80,
             0x3fedf08c2b19e8e6, 0x3fdbb22540b37fe4, 0x3fc8de6b12925ea0, 0x3fc2306f1aae8828],
            [182, 197, 179, 169, 119, 121, 117, 177, 125, 196, 179, 199, 111, 152, 115, 138],
            [0x69980c31, 0x587a6893, 0x192464ed, 0x36c7e0ad, 0x209526f1, 0x424a8a9e, 0x7b369161, 0x31bde6d4,
             0x7fab65e4, 0x0e59d9d3, 0x13f2c475, 0x31580cd4, 0x34ab626e, 0x67a39af9, 0x66ffcd52, 0x37644a81],
            [488, 346, 214, 87, 127, 482, 194, 354, 260, 193, 101, 31, 468, 216, 97, 71],
            [3, 2, 1, 2, 3, 2, 2, 1, 1, 2, 1, 1, 3, 2, 3, 1],
            [0x4065574ca3b91f74, 0x405136118749bcb6, 0xc039edd8192949a8, 0xc05d327f55d686cc,
             0xc05617209e46a866, 0x4064d12f1c044e36, 0xc0440cf365516da4, 0x4052c4083635c482,
             0x401d4b82fe2172e0, 0xc0449c2df5c3f2a0, 0xc05ad343333d6282, 0xc063b2e4d92c7bc0,
             0x40639a451c9c6f86, 0xc03835ee740e5098, 0xc05b839cb6f11577, 0xc0601af8f09ea422],
            [0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1],
        ]),
        (0x2a, [
            [0x222724a2, 0x86cc7763, 0x3fad517d, 0x8af00a13, 0xde5134d1, 0xa2ef6071, 0xfd7630b2, 0x67e92d78,
             0xf8119fea, 0x08cab0df, 0x9e0f81a8, 0x6a3a9ca3, 0x590878fb, 0xbcc7d8e8, 0x2f8eb737, 0xd9688d9b],
            [0x86cc7763222724a2, 0x8af00a133fad517d, 0xa2ef6071de5134d1, 0x67e92d78fd7630b2,
             0x08cab0dff8119fea, 0x6a3a9ca39e0f81a8, 0xbcc7d8e8590878fb, 0xd9688d9b2f8eb737,
             0x219b7e47a11c835e, 0x00d5211f7aba3a1e, 0xeea11039d26bae37, 0x8193012e994eac09,
             0x64019743ddd2f652, 0x2410b617b5c73fda, 0x85e5e480cd5aadfc, 0x37fd16ebd1802190],
            [0x3fe0d98eec6444e4, 0x3fe15e014267f5aa, 0x3fe45dec0e3bca26, 0x3fd9fa4b5e3f5d8c,
             0x3fa19561bff02330, 0x3fda8ea728e783e0, 0x3fe798fb1d0b210f, 0x3feb2d11b365f1d6,
             0x3fc0cdbf23d08e40, 0x3f6aa423ef574700, 0x3fedd422073a4d75, 0x3fe0326025d329d5,
             0x3fd90065d0f774bc, 0x3fc2085b0bdae39c, 0x3fe0bcbc9019ab55, 0x3fcbfe8b75e8c010],
            [526561, 542729, 636468, 405905, 34347, 414961, 737427, 849254, 131283, 3257, 932148, 506153, 390653, 140884, 523043, 218710],
            [0x457805099fd6a8bf, 0x5177b038ef289a69, 0x33f496bc7ebb1859, 0x0465586ffc08cff5,
             0x351d4e51cf07c0d4, 0x5e63ec742c843c7e, 0x6cb446cd97c75b9c, 0x10cdbf23d08e41af,
             0x006a908fbd5d1d0f, 0x7750881ce935d71c, 0x40c980974ca75605, 0x3200cba1eee97b29,
             0x12085b0bdae39fed, 0x1bfe8b75e8c010c8, 0x019ca5be518397e5, 0x4276be10948769fa],
            [3, 3, 4, 2, 0, 5, 0, 6, 3, 2, 3, 1, 0, 3, 0, 4],
            [0x3fe0d98eec6444e4, 0x3fe15e014267f5aa, 0x3fe45dec0e3bca26, 0x3fd9fa4b5e3f5d8c,
             0x3fa19561bff02320, 0x3fda8ea728e783e0, 0x3fe798fb1d0b210e, 0x3feb2d11b365f1d6,
             0x3fc0cdbf23d08e40, 0x3f6aa423ef574600, 0x3fedd422073a4d74, 0x3fe0326025d329d4,
             0x3fd90065d0f774bc, 0x3fc2085b0bdae398, 0x3fe0bcbc9019ab54, 0x3fcbfe8b75e8c010],
            [113, 152, 154, 163, 199, 140, 103, 161, 141, 134, 173, 118, 113, 100, 182, 193],
            [0x11139251, 0x43663bb2, 0x4578050a, 0x6f289a69, 0x5177b039, 0x33f496bc, 0x6cb446ce, 0x3d5d1d0f,
             0x6935d71c, 0x7750881d, 0x4ca75605, 0x019ca5be, 0x4276be11, 0x3b2d2b72, 0x066f5e3d, 0x54c1aa90],
            [263, 271, 318, 203, 17, 207, 369, 425, 65, 1, 467, 253, 195, 70, 262, 109],
            [2, 2, 2, 1, 2, 3, 3, 1, 1, 2, 2, 1, 2, 1, 1, 2],
            [0x40231f0fc6d00e20, 0x402ec31c56231780, 0x4048904fd010511c, 0xc040f00c06edc8e4,
             0xc064f45ee8a164ea, 0xc03e9d93b9e9ba30, 0x40555e4241af4cfc, 0x405f6ec1c88eb82c,
             0xc06097aacd68adfd, 0xc0665a892d776d46, 0x4063724fda29fcec, 0x4001b5cd4c3cb4c0,
             0xc043aee1a44807ac, 0xc060290ffdd50bfc, 0x40209692aa418ef0, 0xc0595105f11858f4],
            [0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1],
        ]),
        (0xdeadbeef, [
            [0xd379d55f, 0x922ad30e, 0xd7a49e60, 0x1b0ae3df, 0x98aab18c, 0xb01fb521, 0x941dadbc, 0xf846aa0f,
             0xd4eada16, 0x3ca2f548, 0xed5bb187, 0xaa3fc764, 0x1106ef54, 0xdf14cd57, 0x273a8b75, 0x623ae111],
            [0x922ad30ed379d55f, 0x1b0ae3dfd7a49e60, 0xb01fb52198aab18c, 0xf846aa0f941dadbc,
             0x3ca2f548d4eada16, 0xaa3fc764ed5bb187, 0xdf14cd571106ef54, 0x623ae111273a8b75,
             0xcd030d51d3c7b574, 0x01840178c7d1d0fc, 0x4c83485ad2ad7255, 0xad2d1bc3da38e686,
             0x67ce6860c1a87ff6, 0x9ca395bebf943b48, 0x45036388348ff9d4, 0xe37e9782f82473d9],
            [0x3fe2455a61da6f3a, 0x3fbb0ae3dfd7a498, 0x3fe603f6a4331556, 0x3fef08d541f283b5,
             0x3fce517aa46a756c, 0x3fe547f8ec9dab76, 0x3febe299aae220dd, 0x3fd88eb84449cea2,
             0x3fe9a061aa3a78f6, 0x3f7840178c7d1d00, 0x3fd320d216b4ab5c, 0x3fe5a5a3787b471c,
             0x3fd9f39a18306a1e, 0x3fe39472b7d7f287, 0x3fd140d8e20d23fe, 0x3fec6fd2f05f048e],
            [570969, 105639, 687987, 969831, 236866, 665039, 871414, 383715, 800831, 5925, 298882, 676473, 405497, 611874, 269587, 888653],
            [0x4915698769bceab0, 0x0d8571efebd24f30, 0x1e517aa46a756d0b, 0x551fe3b276add8c4,
             0x00c200bc63e8e87e, 0x33e7343060d43ffb, 0x2281b1c41a47fcea, 0x71bf4bc17c1239ed,
             0x2961c7c13f16cb66, 0x2af350da480d451c, 0x751219d52f8fd5cc, 0x1bd54483da570049,
             0x42f20b2191537fb7, 0x2ad3ca8861c8de5c, 0x58a877312cd2eef0, 0x4172dc995797a724],
            [0, 4, 6, 1, 4, 6, 2, 5, 0, 2, 4, 2, 4, 6, 4, 2],
            [0x3fe2455a61da6f3a, 0x3fbb0ae3dfd7a490, 0x3fe603f6a4331556, 0x3fef08d541f283b4,
             0x3fce517aa46a7568, 0x3fe547f8ec9dab76, 0x3febe299aae220dc, 0x3fd88eb84449cea0,
             0x3fe9a061aa3a78f6, 0x3f7840178c7d1d00, 0x3fd320d216b4ab5c, 0x3fe5a5a3787b471c,
             0x3fd9f39a18306a1c, 0x3fe39472b7d7f286, 0x3fd140d8e20d23fc, 0x3fec6fd2f05f048e],
            [182, 157, 184, 110, 159, 183, 123, 192, 166, 106, 187, 115, 138, 182, 180, 178],
            [0x69bceab0, 0x580fda91, 0x7c235508, 0x1e517aa4, 0x76add8c4, 0x088377aa, 0x6f8a66ac, 0x668186a9,
             0x00c200bc, 0x6956b92b, 0x2641a42d, 0x56968de2, 0x33e73430, 0x1a47fcea, 0x2281b1c4, 0x7c1239ed],
            [286, 52, 344, 485, 118, 333, 436, 192, 401, 2, 149, 338, 203, 306, 135, 445],
            [2, 1, 3, 1, 3, 2, 3, 1, 3, 2, 3, 1, 1, 3, 3, 2],
            [0x40398c38ccd96358, 0xc061bf15f1a71812, 0x4050eb25adcfac04, 0x4065246be4bd0938,
             0xc057aeb5c4652572, 0x404db4d832f6e47c, 0x4060b6a8184dfe38, 0xc044ee99bff06adc,
             0x405b1312aec47438, 0xc0663bcbbdc4e01e, 0xc05219d89011ef05, 0x404fc3b785b57004,
             0xc04102de9bf7d590, 0x404423054a1eb438, 0xc054bccf021d8565, 0x40617d40a2059e6a],
            [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0],
        ]),
        (0xffffffffffffffff, [
            [0x2e3d5fb8, 0x0fa79848, 0x4112469e, 0x0a3370b4, 0x65c61658, 0x12a43d6f, 0x4e51203b, 0x5d082f91,
             0xd0541fa7, 0x311444d2, 0xd3db9540, 0x8f0ab386, 0x483c6499, 0xd293f428, 0x68fa6506, 0x24e1c7c7],
            [0x0fa798482e3d5fb8, 0x0a3370b44112469e, 0x12a43d6f65c61658, 0x5d082f914e51203b,
             0x311444d2d0541fa7, 0x8f0ab386d3db9540, 0xd293f428483c6499, 0x24e1c7c768fa6506,
             0x5ca54de68be6847c, 0x24dbbd5066b475bd, 0xa79194a975b54175, 0x933376a467f2ca8d,
             0xed5859ed0c8b228d, 0xd105b58860825d41, 0x943655de05c87d40, 0x663b68db6d25286a],
            [0x3faf4f30905c7ab0, 0x3fa466e168822480, 0x3fb2a43d6f65c610, 0x3fd7420be4539448,
             0x3fc88a2269682a0c, 0x3fe1e15670da7b72, 0x3fea527e8509078c, 0x3fc270e3e3b47d30,
             0x3fd7295379a2f9a0, 0x3fc26ddea8335a38, 0x3fe4f232952eb6a8, 0x3fe2666ed48cfe59,
             0x3fedab0b3da19164, 0x3fea20b6b10c104b, 0x3fe286cabbc0b90f, 0x3fd98eda36db494a],
            [61155, 39852, 72823, 363410, 191720, 558760, 822573, 144074, 361901, 143982, 654568, 575007, 927132, 816496, 578957, 399348],
            [0x07d3cc24171eafdc, 0x0519b85a2089234f, 0x09521eb7b2e30b2c, 0x6949fa14241e324d,
             0x1270e3e3b47d3283, 0x2e52a6f345f3423e, 0x53c8ca54badaa0bb, 0x4999bb5233f96547,
             0x76ac2cf686459147, 0x6882dac430412ea1, 0x331db46db6929435, 0x5d2b78aa39635657,
             0x631bcf0e876a8f78, 0x6194b9e9a470eef6, 0x604be5bb2b942e84, 0x3faf1342c89f6de5],
            [0, 0, 0, 2, 1, 5, 1, 2, 1, 4, 4, 6, 5, 4, 2, 5],
            [0x3faf4f30905c7aa0, 0x3fa466e168822480, 0x3fb2a43d6f65c610, 0x3fd7420be4539448,
             0x3fc88a2269682a08, 0x3fe1e15670da7b72, 0x3fea527e8509078c, 0x3fc270e3e3b47d30,
             0x3fd7295379a2f9a0, 0x3fc26ddea8335a38, 0x3fe4f232952eb6a8, 0x3fe2666ed48cfe58,
             0x3fedab0b3da19164, 0x3fea20b6b10c104a, 0x3fe286cabbc0b90e, 0x3fd98eda36db4948],
            [118, 106, 125, 139, 107, 130, 136, 181, 119, 182, 128, 182, 141, 114, 154, 136],
            [0x171eafdc, 0x07d3cc24, 0x2089234f, 0x0519b85a, 0x32e30b2c, 0x682a0fd4, 0x188a2269, 0x347d3283,
             0x2e52a6f3, 0x126ddea8, 0x53c8ca55, 0x76ac2cf7, 0x02e43ea0, 0x36929435, 0x4c31c82e, 0x2c5c5029],
            [30, 19, 36, 182, 96, 279, 412, 72, 181, 72, 327, 288, 464, 409, 290, 200],
            [1, 1, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 2, 2, 3, 2],
            [0xc063bf8a3b4fdf39, 0xc064b4f530508fcb, 0xc0633921336b1c2f, 0xc048963e8dd4eef4,
             0xc05bbedfcde2c272, 0x4035270c7599ecc8, 0x405d0803d629653c, 0xc060044fe1f28bfd,
             0xc048dbc539e5a1ec, 0xc060055fb8ddf248, 0x404bd25c8726c378, 0x403b005ed7322d68,
             0x40633887ceab3476, 0x405c7c01d1f1edd4, 0x403c6c68c03821e8, 0xc0421e3a45b741e4],
            [1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
        ]),
    ];

    /// The whole point of this module: every call shape must stay
    /// bit-identical to `rand 0.8`'s `StdRng`.
    #[test]
    fn matches_stdrng_bit_for_bit() {
        for (seed, rows) in &GOLDEN {
            for (i, (shape, want)) in SHAPES.iter().zip(rows).enumerate() {
                let mut rng = StreamRng::seed_from_u64(*seed);
                let got: Vec<u64> = (0..16).map(|_| shape(&mut rng)).collect();
                assert_eq!(got, want, "seed {seed:#x}, shape {i}");
            }
            // The degenerate cases: a full-domain inclusive range is a raw
            // draw, and a certain coin consumes nothing.
            let mut rng = StreamRng::seed_from_u64(*seed);
            assert!(rng.gen_bool(1.0));
            assert_eq!(rng.gen_range_u64_inclusive(0..=u64::MAX), rows[1][0]);
        }
    }

    /// next_u32 consumption interleaved with next_u64 must straddle
    /// blocks exactly like BlockRng.
    #[test]
    fn block_straddle_matches_stdrng() {
        let mut rng = StreamRng::seed_from_u64(9);
        // Consume 63 u32s so the next u64 straddles the refill boundary.
        for _ in 0..63 {
            rng.next_u32();
        }
        assert_eq!(rng.next_u64(), 0x8cf3_da82_b22b_2687);
        assert_eq!(rng.next_u64(), 0xe0b9_b1c4_7b44_272c);
    }

    /// State extraction + reinjection resumes the sequence exactly.
    #[test]
    fn state_round_trip_resumes_sequence() {
        let mut rng = StreamRng::seed_from_u64(77);
        for _ in 0..100 {
            rng.next_u64();
        }
        let state = rng.state();
        let expected: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        let mut resumed = StreamRng::from_state(state);
        let actual: Vec<u64> = (0..100).map(|_| resumed.next_u64()).collect();
        assert_eq!(expected, actual);
    }

    /// The refill writes the words four scalar `block12` calls write, for
    /// random keys and counters, for every counter whose low word is about
    /// to carry into word 13 in some lane, and across the 64-bit wrap.
    #[test]
    fn refill_matches_four_scalar_blocks() {
        let mut source = StreamRng::seed_from_u64(0x0b10_c512);
        let random = if cfg!(miri) { 100 } else { 10_000 };
        let mut counters: Vec<u64> = (0..random).map(|_| source.next_u64()).collect();
        for high in [0, 1, 0x1234_5678, 0xFFFF_FFFE, 0xFFFF_FFFF] {
            counters.extend((0xFFFF_FFFDu64..=0xFFFF_FFFF).map(|low| (high << 32) | low));
        }
        counters.extend([0, u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX]);
        for counter in counters {
            let key: [u32; 8] = std::array::from_fn(|_| source.next_u32());
            let mut rng = StreamRng::from_state(RngState {
                key,
                counter,
                buf: [0; 64],
                index: 64,
            });
            rng.refill();
            let mut want = [0u32; 64];
            for (b, block) in (0u64..).zip(want.chunks_exact_mut(16)) {
                block12(&key, counter.wrapping_add(b), block);
            }
            assert_eq!(rng.buf, want, "counter {counter:#x}");
            assert_eq!(rng.counter, counter.wrapping_add(4));
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StreamRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = rng.gen_range_u64(5..17);
            assert!((5..17).contains(&x));
            let y = rng.gen_range_f64(-1.5..2.5);
            assert!((-1.5..2.5).contains(&y));
        }
    }
}
