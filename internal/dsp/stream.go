package dsp

import (
	"math"
	"math/bits"
)

// Stream is the simulator's batch randomness engine: a splittable,
// deterministically seedable PRNG (xoshiro256++ state derived from one
// master seed through a SplitMix64-style key hash) with a vectorizable
// ziggurat Gaussian sampler on top. It replaces per-sample
// Rand.ComplexNormal draws on the hot noise path: StreamAt carves any
// number of statistically independent streams out of a single seed, so
// parallel workers each fill their own region from their own stream and
// the composite output is independent of worker count by construction
// (the stream index names the *region*, not the worker).
//
// The math/rand-backed Rand stays as the statistical oracle; the stream
// sampler's distribution is pinned against it by moment and
// Kolmogorov–Smirnov tests (see stream_test.go).
//
// A Stream is a 32-byte value. The zero Stream is not valid; obtain one
// via NewStream or StreamAt. Streams are not safe for concurrent use —
// they are cheap values, give every goroutine its own.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// NewStream returns the stream at index 0 of seed.
func NewStream(seed int64) *Stream {
	st := StreamAt(seed, 0)
	return &st
}

// StreamAt derives the i-th stream of seed: a deterministic function of
// (seed, i) only. Distinct indices yield decorrelated generators — the
// xoshiro state words come from a SplitMix64 sequence whose origin is a
// full-avalanche hash of both inputs, so streams at related indices
// (i, i+1, …) share no state-word positions the way a naive
// seed+i·gamma derivation would.
func StreamAt(seed int64, i uint64) Stream {
	x := mix64(uint64(seed))
	x ^= mix64(i + 0x9e3779b97f4a7c15)
	x = mix64(x)
	var st Stream
	st.s0 = splitmix64(&x)
	st.s1 = splitmix64(&x)
	st.s2 = splitmix64(&x)
	st.s3 = splitmix64(&x)
	if st.s0|st.s1|st.s2|st.s3 == 0 {
		// The all-zero xoshiro state is absorbing; unreachable in
		// practice but cheap to exclude outright.
		st.s0 = 0x9e3779b97f4a7c15
	}
	return st
}

// splitmix64 advances x by the golden-ratio increment and returns the
// finalized output — Vigna's canonical seeding generator.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 is the SplitMix64 output finalizer alone: a bijective
// full-avalanche mix of one word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniform bits (xoshiro256++).
func (st *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := st.s0, st.s1, st.s2, st.s3
	res := rotl64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl64(s3, 45)
	st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
	return res
}

// Float64 returns a uniform draw from [0, 1) with 53 random bits.
func (st *Stream) Float64() float64 {
	return unitFloat(st.Uint64())
}

// unitFloat maps a uniform word to [0, 1) through its top 53 bits.
func unitFloat(u uint64) float64 {
	return float64(u>>11) * 0x1p-53
}

// Ziggurat tables for the standard normal (Marsaglia & Tsang layout,
// zigLayers rectangles). Layer magnitudes are compared as 52-bit
// integers so the fast path is one table lookup, one compare and one
// multiply per sample; 52 bits keeps the uint64→float64 conversion
// exact.
const (
	zigLayers = 128
	zigR      = 3.442619855899      // right edge of the base layer
	zigV      = 9.91256303526217e-3 // area of each layer
	zigM      = 1 << 52             // integer magnitude scale
)

var (
	zigK [zigLayers]uint64  // fast-path acceptance thresholds
	zigW [zigLayers]float64 // magnitude → x scale per layer
	zigF [zigLayers]float64 // f(x_i) = exp(-x_i²/2) per layer

	// zigKW interleaves zigK[i] and zigW[i]'s bits at 2i and 2i+1, so
	// the block kernels fetch a layer's pair with one load.
	zigKW [2 * zigLayers]uint64

	// zigPack[m] is the VPERMD pattern that packs the quad lanes set in
	// the four-bit mask m to the front, in order.
	zigPack [16][8]uint32
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	dn, tn := zigR, zigR
	q := zigV / f(dn)
	zigK[0] = uint64(dn / q * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[zigLayers-1] = dn / zigM
	zigF[0] = 1
	zigF[zigLayers-1] = f(dn)
	for i := zigLayers - 2; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+f(dn)))
		zigK[i+1] = uint64(dn / tn * zigM)
		tn = dn
		zigW[i] = dn / zigM
		zigF[i] = f(dn)
	}
	for i := range zigLayers {
		zigKW[2*i], zigKW[2*i+1] = zigK[i], math.Float64bits(zigW[i])
	}
	for m := range zigPack {
		k := 0
		for lane := range uint32(4) {
			if m>>lane&1 != 0 {
				zigPack[m][2*k], zigPack[m][2*k+1] = 2*lane, 2*lane+1
				k++
			}
		}
	}
}

// zigSplit extracts the ziggurat draw from one uniform word: the layer
// index from the low bits and a signed 53-bit magnitude from the high
// bits (arithmetic shift, so the sign rides the top bit and the
// scale multiply needs no branch — mispredicting a uniformly random
// sign branch would cost more than the whole fast path).
func zigSplit(u uint64) (i uint64, j int64, mag uint64) {
	i = u & (zigLayers - 1)
	j = int64(u) >> 11
	m := uint64(j >> 63)
	mag = (uint64(j) ^ m) - m // |j|, branch-free
	return
}

// NormFloat64 returns a standard normal draw via the ziggurat: one
// Uint64 covers the layer index, sign and 52-bit magnitude. 97.24% of
// draws accept immediately (the mean of zigK[i]/2⁵² over the layers;
// test-pinned). zigK[1] is 0: layer 1 is the cap at the top of the
// curve, whose inner rectangle has width x₀ = 0, so all of its draws —
// 1/128, or 0.78%, of all draws — go to the wedge test.
func (st *Stream) NormFloat64() float64 {
	u := st.Uint64()
	i, j, mag := zigSplit(u)
	if mag < zigK[i] {
		return float64(j) * zigW[i]
	}
	return st.normSlow(u)
}

// normSlow finishes a draw whose first Uint64 u fell outside the fast
// path: the base-layer tail or a wedge rejection test, redrawing until
// acceptance.
func (st *Stream) normSlow(u uint64) float64 {
	src := zigSource{st: st}
	return normSlowSrc(u, &src)
}

// zigSource supplies the slow path's uniform words: words a block
// kernel already generated first (buf holds their bit patterns, from
// pos on), then the live stream. The buffer is always a prefix of the
// stream's own future output — it was filled by advancing the real
// state — so draining it and falling through to Uint64 reproduces the
// exact word sequence sequential NormFloat64 calls would see.
type zigSource struct {
	st  *Stream
	buf []float64
	pos int
}

func (s *zigSource) next() uint64 {
	if s.pos < len(s.buf) {
		u := math.Float64bits(s.buf[s.pos])
		s.pos++
		return u
	}
	return s.st.Uint64()
}

// float64 and float64Open mirror Stream.Float64/float64Open word for
// word and expression for expression, so slow-path draws through a
// buffered source are bit-identical to the struct methods.
func (s *zigSource) float64() float64     { return unitFloat(s.next()) }
func (s *zigSource) float64Open() float64 { return (float64(s.next()>>11) + 0.5) * 0x1p-53 }

// normSlowSrc is normSlow over an arbitrary word source.
func normSlowSrc(u uint64, src *zigSource) float64 {
	for {
		i, j, mag := zigSplit(u)
		x := float64(j) * zigW[i]
		switch {
		case mag < zigK[i]:
			// Only reachable on redraws.
			return x
		case i == 0:
			return zigTail(j, src)
		case zigWedge(i, x, src.float64()) == 1:
			return x
		}
		u = src.next()
	}
}

// zigTail draws from the base layer's tail beyond R (Marsaglia's exact
// method) for a rejected base-layer draw of signed magnitude j. It
// consumes an even, outcome-dependent number of words — the one slow
// case whose word count the rejection bitmap cannot predict.
func zigTail(j int64, src *zigSource) float64 {
	var tail float64
	for {
		tail = -math.Log(src.float64Open()) / zigR
		y := -math.Log(src.float64Open())
		if y+y >= tail*tail {
			break
		}
	}
	if j < 0 {
		return -(zigR + tail)
	}
	return zigR + tail
}

// zigWedge runs the wedge test of a rejected draw x in layer i >= 1
// against the uniform v — one word, whatever the outcome — and returns
// 1 if it accepts x, 0 if not. On rejection the next word is a fresh
// draw for the same normal. The outcome is the sign bit of the
// difference (for finite operands a−b < 0 exactly when a < b), a
// number rather than a branch, so a caller that only adds it to an
// index never stalls on the exponential.
func zigWedge(i uint64, x, v float64) int {
	return int(math.Float64bits(zigF[i]+v*(zigF[i-1]-zigF[i])-math.Exp(-0.5*x*x)) >> 63)
}

// NormComplex returns a circularly symmetric complex Gaussian draw with
// total variance sigma2 — the stream engine's analogue of
// Rand.ComplexNormal (real part drawn first, then imaginary, each with
// variance sigma2/2). This is the draw the trajectory layer's evolved
// channel state (correlated fading innovations) is built on.
func (st *Stream) NormComplex(sigma2 float64) complex128 {
	s := math.Sqrt(sigma2 / 2)
	re := st.NormFloat64() * s
	im := st.NormFloat64() * s
	return complex(re, im)
}

// UniformPhase returns e^{jθ} with θ uniform over [0, 2π) — a unit
// complex number with uniformly random phase.
func (st *Stream) UniformPhase() complex128 {
	theta := st.Float64() * 2 * math.Pi
	return complex(math.Cos(theta), math.Sin(theta))
}

// zigBlock is the block depth of the fill kernels: how many words one
// call generates per stream, at most the samples remaining. Each
// output sample consumes at least one word, so a block never runs
// ahead of the sequential draw order: every generated word is consumed
// before the destination fills.
const zigBlock = 512

// NormBatch fills dst with standard normal draws — the same sequence
// len(dst) successive NormFloat64 calls would produce, leaving the
// stream in the same state (test-enforced). On AVX2 a kernel
// (zigFillAVX2) generates a block of words, runs the branchless fast
// path on every one and records rejections in a bitmap without
// stopping; zigWalk then compacts the block into dst in place, settling
// each rejection in scalar code. Elsewhere the generator and fast path
// run inlined in one scalar loop.
func (st *Stream) NormBatch(dst []float64) {
	if !simdAVX2 || len(dst) < 8 {
		st.normBatchScalar(dst)
		return
	}
	var words [zigBlock]float64
	var acc [zigBlock / 64]uint64
	idx := 0
	for len(dst)-idx >= 4 {
		n := min(zigBlock, len(dst)-idx) &^ 3
		zigFillAVX2(dst[idx:idx+n], words[:n], acc[:], st, &zigKW)
		idx += zigWalk(dst[idx:], dst[idx:idx+n], words[:n], acc[:], 1, st)
	}
	for ; idx < len(dst); idx++ {
		dst[idx] = st.NormFloat64()
	}
}

// ZigLanes is the most streams NormBatchLanes fills at once: one per
// 64-bit lane of an AVX2 register.
const ZigLanes = 4

// NormBatchLanes fills dsts[l] with the next len(dsts[l]) standard
// normals of sts[l] for every l — up to ZigLanes streams of any
// lengths — leaving each stream exactly as sts[l].NormBatch(dsts[l])
// would, with the same values (test-enforced). The streams must be
// distinct. On AVX2 one kernel (zigLanesAVX2) advances three or four
// streams side by side in the lanes of a register, classifying every
// word as NormBatch's kernel does, and zigWalk compacts each stream's
// block into its destination. A lane with fewer than four normals left
// finishes on NormFloat64, and once at most two lanes remain each
// finishes on NormBatch: one lane-kernel step costs about what four
// single-stream words do.
func NormBatchLanes(sts []*Stream, dsts [][]float64) {
	if len(sts) != len(dsts) || len(sts) > ZigLanes {
		panic("dsp: NormBatchLanes needs one destination per stream, at most ZigLanes")
	}
	var done [ZigLanes]int
	var scratch []float64
	for {
		live, n := 0, zigBlock
		var on [ZigLanes]bool
		for l, dst := range dsts {
			rem := len(dst) - done[l]
			if rem >= 4 {
				on[l] = true
				live++
				n = min(n, rem)
				continue
			}
			for ; done[l] < len(dst); done[l]++ {
				dst[done[l]] = sts[l].NormFloat64()
			}
		}
		if live <= 2 || !simdAVX2 {
			for l, dst := range dsts {
				sts[l].NormBatch(dst[done[l]:])
			}
			break
		}
		if scratch == nil {
			// Words and values of each lane's block: 32 KiB.
			scratch = BorrowFloat64(2 * ZigLanes * zigBlock)
		}
		words, vals := scratch[:ZigLanes*zigBlock], scratch[ZigLanes*zigBlock:]
		n &^= 3
		// Idle lanes run from the zero state: all-zero words, ignored.
		var lanes [16]uint64
		for l, st := range sts {
			if on[l] {
				lanes[l], lanes[4+l], lanes[8+l], lanes[12+l] = st.s0, st.s1, st.s2, st.s3
			}
		}
		var acc [ZigLanes * zigBlock / 64]uint64
		zigLanesAVX2(&lanes, words, vals, acc[:], zigBlock, n, &zigKW)
		for l, st := range sts {
			if !on[l] {
				continue
			}
			st.s0, st.s1, st.s2, st.s3 = lanes[l], lanes[4+l], lanes[8+l], lanes[12+l]
			off := l * zigBlock
			done[l] += zigWalk(dsts[l][done[l]:], vals[off:off+n], words[off:off+n], acc[l:], ZigLanes, st)
		}
	}
	if scratch != nil {
		ReturnFloat64(scratch)
	}
}

// zigWalk turns one stream's kernel block into normals: words holds the
// n generated words' bits, vals each word's fast-path value, and bit
// p%64 of acc[(p/64)·step] says whether word p accepts (bits past n
// are zero). The stream st stands just past the block. It writes the
// normals to out and returns how many; out may start at vals' first
// element, since each normal consumes at least one word.
//
// Which words are draws follows from the bitmap alone: the first word
// is a draw; an accepted draw is followed by a draw; a rejected draw in
// layer i >= 1 takes the wedge test, which consumes exactly one uniform
// word whatever its outcome, so the word after that uniform is a draw
// again — a run of rejected words alternates draw, uniform
// (zigRejectedDraws). Only a base-layer rejection — the tail,
// consuming an outcome-dependent word count — changes where the next
// draw sits, and the walk resumes after it. A rejection on the block's
// last words draws its uniform or tail words from the live stream,
// where sequential NormFloat64 calls would find them; a normal whose
// wedge test rejects on the last word simply takes its next draw from
// the next block.
//
// The walk settles every tail in place — its value goes to vals — and
// builds a keep bitmap, which starts as the acceptance bitmap, marking
// the words that emit: accepted draws, tails and, once tested, wedge
// draws whose test accepts; uniforms and a tail's words are cleared.
// The wedge tests run after the walk, in a loop of their own over the
// wedge draws it marked: each recomputes x in scalar (the kernel's
// conversion is exact only below 2⁵²) and its outcome only sets a keep
// bit, so nothing waits on an exponential and successive ones overlap.
// zigCompactAVX2 then packs the kept words into out.
func zigWalk(out, vals, words []float64, acc []uint64, step int, st *Stream) int {
	n := len(words)
	chunks := (n + 63) >> 6
	var keep, wedge [zigBlock / 64]uint64
	for c := range chunks {
		keep[c] = acc[c*step]
	}
	p := 0           // the walk (re)starts here, at a draw
	var carry uint64 // 1 when the chunk's first word is a uniform
walk:
	for c := p >> 6; c < chunks; c++ {
		base := c << 6
		rej := ^acc[c*step]
		if lim := n - base; lim < 64 {
			rej &= 1<<lim - 1
		}
		if p > base {
			rej &= ^uint64(0) << (p - base)
		}
		rej &^= carry
		drawn := zigRejectedDraws(rej)
		for b := drawn; b != 0; b &= b - 1 {
			r := base + bits.TrailingZeros64(b)
			u := math.Float64bits(words[r])
			if u&(zigLayers-1) != 0 {
				continue
			}
			// A tail at r: the draws below it stand; its words displace
			// the ones assumed above it, so the walk goes on after them.
			below := uint64(1)<<(r&63) - 1
			wedge[c] |= drawn & below
			keep[c] = keep[c]&^((drawn<<1|carry)&below) | 1<<(r&63)
			src := zigSource{st: st, buf: words, pos: r + 1}
			vals[r] = zigTail(int64(u)>>11, &src)
			for k := r + 1; k < min(src.pos, n); k++ {
				keep[k>>6] &^= 1 << (k & 63)
			}
			p, carry = src.pos, 0
			goto walk
		}
		wedge[c] |= drawn
		keep[c] &^= drawn<<1 | carry
		carry = drawn >> 63
	}
	// A wedge test on the last word takes its uniform from the live
	// stream, after any word the walk consumed.
	var lastV float64
	if n > 0 && wedge[(n-1)>>6]>>((n-1)&63)&1 != 0 {
		lastV = st.Float64()
	}
	for c := range chunks {
		base := c << 6
		for b := wedge[c]; b != 0; b &= b - 1 {
			r := base + bits.TrailingZeros64(b)
			i, j, _ := zigSplit(math.Float64bits(words[r]))
			x := float64(j) * zigW[i]
			v := lastV
			if r+1 < n {
				v = unitFloat(math.Float64bits(words[r+1]))
			}
			vals[r] = x
			keep[c] |= uint64(zigWedge(i, x, v)) << (r & 63)
		}
	}
	return zigCompactAVX2(out, vals, keep[:chunks], &zigPack)
}

// zigRejectedDraws returns which of a chunk's rejected words are draws,
// given rej, the rejection bits of the words from a draw on, with a
// word that is known to be a uniform cleared. Every run of set bits
// then starts at a draw — the word before it accepted, or is a
// uniform, or is not in rej's range — and alternates draw, uniform, so
// the draws are a run's even bits when it starts on an even bit and
// its odd bits otherwise. Adding each odd-starting run's first bit
// carries through the run and clears it, which sorts the runs by
// parity in one addition.
func zigRejectedDraws(rej uint64) uint64 {
	const even = 0x5555555555555555
	starts := rej &^ (rej << 1)
	evenRuns := (rej + starts&^even) & rej
	return evenRuns&even | rej&^evenRuns&^even
}

// normBatchScalar is the portable NormBatch body: generator and
// ziggurat fast path inlined into one fill loop.
func (st *Stream) normBatchScalar(dst []float64) {
	s0, s1, s2, s3 := st.s0, st.s1, st.s2, st.s3
	for idx := range dst {
		res := rotl64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl64(s3, 45)

		i, j, mag := zigSplit(res)
		if mag < zigK[i] {
			dst[idx] = float64(j) * zigW[i]
			continue
		}
		// Slow path: hand the advanced state back to the struct, finish
		// the draw there, and reload.
		st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
		dst[idx] = st.normSlow(res)
		s0, s1, s2, s3 = st.s0, st.s1, st.s2, st.s3
	}
	st.s0, st.s1, st.s2, st.s3 = s0, s1, s2, s3
}
