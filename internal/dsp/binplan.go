package dsp

import "fmt"

// BinPlan is the set of bins of an n-bin spectrum that a consumer
// reads, held as sorted, disjoint, non-adjacent half-open spans. A pass
// given a plan only guarantees the plan's bins: a transform, a power
// pass or a row sum may leave any other bin holding whatever it held
// before, or an intermediate value. A nil *BinPlan means every bin.
//
// Besides the spans, a plan carries, for every butterfly stride of
// BatchPlan's cascade, the groups whose outputs reach its bins (see
// BatchPlan.ForwardBatch), so a transform over a sparse plan skips the
// groups whose outputs nobody reads in every pass. Both are computed
// once per Set* call; a plan is read-only afterwards and safe for
// concurrent readers.
type BinPlan struct {
	n     int
	full  bool
	spans []int // lo0, hi0, lo1, hi1, … in ascending order

	// groups[k] lists, as lo/hi pairs, the runs of butterfly group
	// indices j of a pass with stride h = n>>(k+1) whose outputs reach
	// the plan: j is listed when some plan bin b has b mod h = j. There
	// is one list per stride h >= groupAlign of a power-of-two n, and
	// runs are widened outward to multiples of groupAlign. Narrower
	// strides run whole.
	groups [][]int

	mark []bool // SetWindows scratch, kept to rebuild without allocating
}

// groupAlign is the run granularity of pruned butterfly passes: the
// AVX2 butterfly kernels process four groups per iteration.
const groupAlign = 4

// SetFull makes p the whole n-bin spectrum.
func (p *BinPlan) SetFull(n int) {
	if n < 1 {
		panic(fmt.Sprintf("dsp: bin plan size %d", n))
	}
	p.n, p.full = n, true
	p.spans = append(p.spans[:0], 0, n)
	p.resetGroups()
	for k := range p.groups {
		p.groups[k] = append(p.groups[k][:0], 0, n>>(k+1))
	}
}

// resetGroups sizes groups to one run list per stride h >= groupAlign
// of p.n, none when p.n is not a power of two, keeping the lists'
// storage so a rebuild allocates nothing.
func (p *BinPlan) resetGroups() {
	strides := 0
	if IsPow2(p.n) && p.n >= 2*groupAlign {
		strides = Log2(p.n) - Log2(groupAlign)
	}
	if cap(p.groups) < strides {
		p.groups = append(p.groups[:cap(p.groups)], make([][]int, strides-cap(p.groups))...)
	}
	p.groups = p.groups[:strides]
}

// groupRuns returns the group runs of a butterfly pass with stride h,
// or all = true when the pass must run every group: for a nil or full
// plan, and for strides narrower than groupAlign.
func (p *BinPlan) groupRuns(h int) (runs []int, all bool) {
	if p.Full() || h < groupAlign {
		return nil, true
	}
	return p.groups[Log2(p.n)-Log2(h)-1], false
}

// SetWindows makes p the union of the circular windows [c−r, c+r]
// around each centre c of an n-bin spectrum (centres are reduced mod
// n). A union that covers every bin is recorded as full, so passes over
// it run exactly their unplanned arithmetic. p's storage is reused.
func (p *BinPlan) SetWindows(n int, centers []int, r int) {
	if n < 1 || r < 0 {
		panic(fmt.Sprintf("dsp: bin plan size %d, window half-width %d", n, r))
	}
	if 2*r+1 >= n {
		p.SetFull(n)
		return
	}
	if cap(p.mark) < n {
		p.mark = make([]bool, n)
	}
	mark := p.mark[:n]
	clear(mark)
	for _, c := range centers {
		c = WrapIndex(c, n)
		lo, hi := c-r, c+r+1
		if lo < 0 {
			markRange(mark, lo+n, n)
			lo = 0
		}
		if hi > n {
			markRange(mark, 0, hi-n)
			hi = n
		}
		markRange(mark, lo, hi)
	}
	p.n = n
	p.spans = appendRuns(p.spans[:0], mark, 1)
	p.full = len(p.spans) == 2 && p.spans[0] == 0 && p.spans[1] == n
	p.resetGroups()
	// Fold the mask in place: after folding at stride h, mark[j] for
	// j < h is set when some plan bin b has b mod h = j. Each fold
	// halves the live prefix, so every stride together costs O(n).
	for k := range p.groups {
		h := n >> (k + 1)
		for j := 0; j < h; j++ {
			mark[j] = mark[j] || mark[j+h]
		}
		p.groups[k] = appendRuns(p.groups[k][:0], mark[:h], groupAlign)
	}
}

func markRange(mark []bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		mark[i] = true
	}
}

// appendRuns appends to dst the lo/hi pairs of the maximal runs of
// set entries of mark, each widened outward to multiples of align
// (which must divide len(mark)).
func appendRuns(dst []int, mark []bool, align int) []int {
	open := false
	for b := 0; b < len(mark); b += align {
		set := false
		for _, m := range mark[b : b+align] {
			if m {
				set = true
				break
			}
		}
		switch {
		case set && !open:
			dst = append(dst, b)
			open = true
		case !set && open:
			dst = append(dst, b)
			open = false
		}
	}
	if open {
		dst = append(dst, len(mark))
	}
	return dst
}

// Full reports whether the plan holds every bin; a nil plan does.
func (p *BinPlan) Full() bool { return p == nil || p.full }

// Contains reports whether bin i is in the plan.
func (p *BinPlan) Contains(i int) bool {
	if p == nil {
		return true
	}
	for k := 0; k < len(p.spans); k += 2 {
		if i < p.spans[k] {
			return false
		}
		if i < p.spans[k+1] {
			return true
		}
	}
	return false
}

// PowerSpectrum writes |re[i] + i·im[i]|² into dst at every plan bin,
// through PowerSpectrumPlanar, so each written bin is bit-identical to
// the unplanned power spectrum. dst, re and im must have the plan's
// length (any length for a nil plan).
func (p *BinPlan) PowerSpectrum(dst, re, im []float64) {
	if p.Full() {
		PowerSpectrumPlanar(dst, re, im)
		return
	}
	p.checkRow("PowerSpectrum", len(re))
	for k := 0; k < len(p.spans); k += 2 {
		lo, hi := p.spans[k], p.spans[k+1]
		PowerSpectrumPlanar(dst[lo:hi], re[lo:hi], im[lo:hi])
	}
}

// AddRows adds src into dst (dst[i] += src[i], through AddFloat64) at
// every plan bin of every row, both slices holding whole rows of the
// plan's length back to back — the soft cross-AP spectra sum.
func (p *BinPlan) AddRows(dst, src []float64) {
	if p.Full() {
		AddFloat64(dst, src)
		return
	}
	p.checkRows("AddRows", dst, src)
	for base := 0; base < len(dst); base += p.n {
		for k := 0; k < len(p.spans); k += 2 {
			lo, hi := base+p.spans[k], base+p.spans[k+1]
			AddFloat64(dst[lo:hi], src[lo:hi])
		}
	}
}

// CopyRows copies src into dst at every plan bin of every row (layout
// as for AddRows).
func (p *BinPlan) CopyRows(dst, src []float64) {
	if p.Full() {
		if len(dst) != len(src) {
			panic("dsp: CopyRows length mismatch")
		}
		copy(dst, src)
		return
	}
	p.checkRows("CopyRows", dst, src)
	for base := 0; base < len(dst); base += p.n {
		for k := 0; k < len(p.spans); k += 2 {
			lo, hi := base+p.spans[k], base+p.spans[k+1]
			copy(dst[lo:hi], src[lo:hi])
		}
	}
}

func (p *BinPlan) checkRow(op string, n int) {
	if n != p.n {
		panic(fmt.Sprintf("dsp: %s row length %d, bin plan size %d", op, n, p.n))
	}
}

func (p *BinPlan) checkRows(op string, dst, src []float64) {
	if len(dst) != len(src) || len(dst)%p.n != 0 {
		panic(fmt.Sprintf("dsp: %s lengths %d/%d are not equal whole rows of %d", op, len(dst), len(src), p.n))
	}
}
