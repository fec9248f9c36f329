package dsp

import (
	"fmt"
	"testing"
)

// drawAt reports whether a normal drawn sequentially from st starts at
// word p and, if one does, whether that first draw rejects and whether
// it is a base-layer (tail) draw. Words per normal are counted by
// advancing a shadow copy of the stream until it matches.
func drawAt(st Stream, p int) (start, rejected, tail bool) {
	shadow := st
	for w := 0; w <= p; {
		probe := st
		first := probe.Uint64()
		st.NormFloat64()
		used := 0
		for shadow != st {
			shadow.Uint64()
			used++
		}
		if w == p {
			i, _, _ := zigSplit(first)
			return true, used > 1, used > 1 && i == 0
		}
		w += used
	}
	return false, false, false
}

// findStream returns the first stream index of seed whose normal
// starting at word p satisfies want.
func findStream(t *testing.T, seed int64, p int, want func(rejected, tail bool) bool) uint64 {
	t.Helper()
	for idx := uint64(0); idx < 1<<16; idx++ {
		if start, rej, tail := drawAt(StreamAt(seed, idx), p); start && want(rej, tail) {
			return idx
		}
	}
	t.Fatalf("no stream of seed %d has the wanted draw at word %d", seed, p)
	return 0
}

// checkLanes fills the given streams with NormBatchLanes and checks
// every value and final state against sequential NormFloat64 calls on
// copies of the same streams.
func checkLanes(t *testing.T, streams []Stream, lens []int) {
	t.Helper()
	want := make([]Stream, len(streams))
	copy(want, streams)
	var sts [ZigLanes]*Stream
	var dsts [ZigLanes][]float64
	for l := range streams {
		sts[l] = &streams[l]
		dsts[l] = make([]float64, lens[l])
	}
	NormBatchLanes(sts[:len(streams)], dsts[:len(streams)])
	for l := range streams {
		for i, got := range dsts[l] {
			if w := want[l].NormFloat64(); got != w {
				t.Fatalf("lens %v: lane %d normal %d = %v, NormFloat64 = %v", lens, l, i, got, w)
			}
		}
		if streams[l] != want[l] {
			t.Fatalf("lens %v: lane %d state diverges after the fill", lens, l)
		}
	}
}

// TestNormBatchLanesMatchesNormFloat64 pins the lane fill to the
// sequential draw order, on the AVX2 body and on the scalar one: one to
// four lanes of unequal lengths (under 16, not multiples of 4, across
// block boundaries), and lanes whose first block ends on a rejected
// draw or on a base-layer tail draw, whose uniform or tail words come
// from the live stream.
func TestNormBatchLanesMatchesNormFloat64(t *testing.T) {
	const seed = 20
	last := zigBlock - 1
	wedgeLast := findStream(t, seed, last, func(rej, tail bool) bool { return rej && !tail })
	tailLast := findStream(t, seed, last, func(rej, tail bool) bool { return tail })
	cases := [][]int{
		{0}, {5}, {9, 3}, {7, 13, 1}, {1, 2, 3, 4},
		{15, 16, 17, 18}, {4, 4, 4, 4}, {0, 100, 0, 60},
		{513, 1027, 4099, 2}, {2048, 2047, 2046, 2045}, {700, 5, 900, 1200},
		{1025, 1026, 1027},
	}
	run := func(t *testing.T) {
		for ci, lens := range cases {
			streams := make([]Stream, len(lens))
			for l := range streams {
				streams[l] = StreamAt(seed, uint64(100*ci+l))
			}
			checkLanes(t, streams, lens)
		}
		for _, lens := range [][]int{{600, 600, 600, 600}, {513, 2000, 700}, {1000}} {
			streams := make([]Stream, len(lens))
			for l := range streams {
				streams[l] = StreamAt(seed, uint64(7000+l))
			}
			streams[0] = StreamAt(seed, wedgeLast)
			if len(streams) > 1 {
				streams[1] = StreamAt(seed, tailLast)
			}
			checkLanes(t, streams, lens)
			// The same streams alone, through NormBatch's kernel.
			for l := range streams {
				checkLanes(t, streams[l:l+1], lens[l:l+1])
			}
		}
	}
	t.Run("simd", run)
	t.Run("scalar", func(t *testing.T) {
		forceScalar(t)
		run(t)
	})
}

// TestNormBatchTailOnBlockEnd drives NormBatch's kernel through a block
// whose last word is a base-layer tail draw and one whose last word is
// a wedge rejection, checking the values and final states against
// NormFloat64 and against the scalar body.
func TestNormBatchTailOnBlockEnd(t *testing.T) {
	const seed = 21
	for _, kind := range []struct {
		name string
		want func(rej, tail bool) bool
	}{
		{"tail", func(rej, tail bool) bool { return tail }},
		{"wedge", func(rej, tail bool) bool { return rej && !tail }},
	} {
		idx := findStream(t, seed, zigBlock-1, kind.want)
		for _, n := range []int{zigBlock, zigBlock + 3, 3 * zigBlock} {
			t.Run(fmt.Sprintf("%s/%d", kind.name, n), func(t *testing.T) {
				a, b, c := StreamAt(seed, idx), StreamAt(seed, idx), StreamAt(seed, idx)
				got, scalar := make([]float64, n), make([]float64, n)
				a.NormBatch(got)
				c.normBatchScalar(scalar)
				for i := range got {
					if w := b.NormFloat64(); got[i] != w || scalar[i] != w {
						t.Fatalf("normal %d: NormBatch %v, scalar body %v, NormFloat64 %v", i, got[i], scalar[i], w)
					}
				}
				if a != b || c != b {
					t.Fatal("states diverge after the fill")
				}
			})
		}
	}
}

// TestZigRejectedDraws checks the bit-parallel draw finder against the
// sequential rule it replaces — word 0 is a draw, and the word after a
// rejected draw is a uniform, everything else a draw — on random
// rejection bitmaps of every density, including dense runs of both
// parities and runs through bit 63.
func TestZigRejectedDraws(t *testing.T) {
	st := StreamAt(5, 5)
	for trial := range 20000 {
		rej := st.Uint64()
		for range trial % 4 { // densities 1/2, 3/4, 7/8, 15/16
			rej |= st.Uint64()
		}
		var want uint64
		uniform := false
		for q := range 64 {
			if !uniform && rej>>q&1 != 0 {
				want |= 1 << q
				uniform = true
				continue
			}
			uniform = false
		}
		if got := zigRejectedDraws(rej); got != want {
			t.Fatalf("rejections %064b: rejected draws %064b, want %064b", rej, got, want)
		}
	}
}

// TestZigAcceptanceRate pins the ziggurat's fast-path share: the mean
// of zigK[i]/2⁵² over the layers is the probability a uniform word
// accepts at once, and a fixed stream's rejection share over 2²² words
// must sit within 0.1 point of it.
func TestZigAcceptanceRate(t *testing.T) {
	sum := 0.0
	for _, k := range zigK {
		sum += float64(k) / zigM
	}
	rate := sum / zigLayers
	if rate < 0.972435 || rate >= 0.972445 {
		t.Fatalf("fast-path acceptance %.6f, want 0.97244 to five places", rate)
	}
	st := StreamAt(1, 0)
	const words = 1 << 22
	rejected := 0
	for range words {
		if i, _, mag := zigSplit(st.Uint64()); mag >= zigK[i] {
			rejected++
		}
	}
	share := float64(rejected) / words
	if d := share - (1 - rate); d < -0.001 || d > 0.001 {
		t.Fatalf("rejection share %.5f, want %.5f ± 0.001", share, 1-rate)
	}
}

// FuzzNormBatchLanes checks NormBatchLanes against sequential
// NormFloat64 calls for arbitrary stream keys and lane lengths.
func FuzzNormBatchLanes(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(4), uint16(513), uint16(7), uint16(2048), uint16(0))
	f.Add(int64(7), uint64(3), uint8(3), uint16(16), uint16(15), uint16(17), uint16(0))
	f.Add(int64(-2), uint64(9), uint8(1), uint16(4099), uint16(0), uint16(0), uint16(0))
	f.Add(int64(5), uint64(1), uint8(2), uint16(600), uint16(601), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, idx uint64, k uint8, l0, l1, l2, l3 uint16) {
		lanes := int(k)%ZigLanes + 1
		lens := []int{int(l0) % 5000, int(l1) % 5000, int(l2) % 5000, int(l3) % 5000}[:lanes]
		streams := make([]Stream, lanes)
		for l := range streams {
			streams[l] = StreamAt(seed, idx+uint64(l))
		}
		checkLanes(t, streams, lens)
	})
}
