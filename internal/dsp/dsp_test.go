package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want bool
	}{{1, true}, {2, true}, {1024, true}, {0, false}, {-4, false}, {3, false}, {12, false}} {
		if got := IsPow2(tc.n); got != tc.want {
			t.Errorf("IsPow2(%d) = %v", tc.n, got)
		}
	}
}

func TestNextPow2(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {1000, 1024}} {
		if got := NextPow2(tc.n); got != tc.want {
			t.Errorf("NextPow2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a delta is flat.
	x := make([]complex128, 64)
	x[0] = 1
	y := fft(x)
	for i, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// FFT of e^{2πi·k·n/N} peaks only at bin k.
	n, k := 128, 17
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/float64(n)))
	}
	y := fft(x)
	for i, v := range y {
		mag := cmplx.Abs(v)
		if i == k && math.Abs(mag-float64(n)) > 1e-9 {
			t.Fatalf("peak bin %d magnitude %v, want %d", i, mag, n)
		}
		if i != k && mag > 1e-8 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := NewRand(1)
	for _, n := range []int{2, 16, 256, 2048} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = rng.ComplexNormal(1)
		}
		y := ifft(fft(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: %v != %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy conservation: sum|x|^2 = sum|X|^2 / N.
	rng := NewRand(2)
	x := make([]complex128, 512)
	for i := range x {
		x[i] = rng.ComplexNormal(1)
	}
	tx := signalEnergy(x)
	fx := signalEnergy(fft(x)) / float64(len(x))
	if math.Abs(tx-fx)/tx > 1e-10 {
		t.Fatalf("Parseval violated: %v vs %v", tx, fx)
	}
}

func TestFFTLinearityQuick(t *testing.T) {
	rng := NewRand(3)
	f := func(scale1, scale2 float64) bool {
		// Bound scales: quick generates values up to ±MaxFloat64.
		scale1 = math.Mod(scale1, 100)
		scale2 = math.Mod(scale2, 100)
		if math.IsNaN(scale1) || math.IsNaN(scale2) {
			return true
		}
		n := 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = rng.ComplexNormal(1)
			b[i] = rng.ComplexNormal(1)
			sum[i] = complex(scale1, 0)*a[i] + complex(scale2, 0)*b[i]
		}
		fa, fb, fs := fft(a), fft(b), fft(sum)
		for i := range fs {
			want := complex(scale1, 0)*fa[i] + complex(scale2, 0)*fb[i]
			if cmplx.Abs(fs[i]-want) > 1e-6*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFFTPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two")
		}
	}()
	NewFFT(100)
}

func TestFractionalDelayTonePhase(t *testing.T) {
	// A delayed pure tone acquires phase -2πf·d; check mid-signal
	// samples (edges carry interpolation transients).
	n, k := 256, 10
	tone := make([]complex128, n)
	for i := range tone {
		tone[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/float64(n)))
	}
	d := 0.5
	del := FractionalDelay(tone, d)
	// The padded FFT length is 512; frequency of the tone is k/n in
	// cycles/sample regardless.
	wantPhase := -2 * math.Pi * float64(k) / float64(n) * d
	got := cmplx.Phase(del[128] / tone[128])
	if math.Abs(got-wantPhase) > 0.05 {
		t.Fatalf("phase %v, want %v", got, wantPhase)
	}
}

func TestFractionalDelayZero(t *testing.T) {
	x := []complex128{1, 2i, -3}
	y := FractionalDelay(x, 0)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("zero delay modified signal")
		}
	}
}

func TestDirichletSideLobes(t *testing.T) {
	// The paper's side-lobe figures: first lobe ~-13.3 dB, third
	// ~-20.8 dB (Fig. 8 annotations).
	first := 20 * math.Log10(DirichletMag(1.5, 512))
	if math.Abs(first-(-13.5)) > 0.5 {
		t.Errorf("first side lobe %v dB, want ~-13.5", first)
	}
	third := 20 * math.Log10(DirichletMag(3.5, 512))
	if math.Abs(third-(-20.8)) > 0.5 {
		t.Errorf("third side lobe %v dB, want ~-20.8", third)
	}
}

func TestWrapIndexAndCircularDistance(t *testing.T) {
	if WrapIndex(-1, 8) != 7 || WrapIndex(9, 8) != 1 || WrapIndex(8, 8) != 0 {
		t.Fatal("WrapIndex broken")
	}
	if CircularDistance(0, 7, 8) != 1 {
		t.Fatal("CircularDistance(0,7,8) != 1")
	}
	if CircularDistance(2, 6, 8) != 4 {
		t.Fatal("CircularDistance(2,6,8) != 4")
	}
	f := func(a, b int, n uint8) bool {
		m := int(n%200) + 2
		d := CircularDistance(a, b, m)
		return d >= 0 && d <= m/2 && d == CircularDistance(b, a, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapFrac(t *testing.T) {
	if got := WrapFrac(300, 512); got != 300-512 {
		t.Errorf("WrapFrac(300,512) = %v", got)
	}
	if got := WrapFrac(-300, 512); got != 212 {
		t.Errorf("WrapFrac(-300,512) = %v", got)
	}
	if got := WrapFrac(100, 512); got != 100 {
		t.Errorf("WrapFrac(100,512) = %v", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(2.5); got != 0.5 {
		t.Errorf("At(2.5) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v", got)
	}
	if got := c.Complementary(2.5); got != 0.5 {
		t.Errorf("Complementary = %v", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v", got)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	min, max := MinMax(xs)
	if min != 2 || max != 9 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestRandDistributions(t *testing.T) {
	rng := NewRand(4)
	n := 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := rng.Normal(3, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("Normal variance = %v", variance)
	}

	var pwr float64
	for i := 0; i < n; i++ {
		v := rng.ComplexNormal(2.5)
		pwr += real(v)*real(v) + imag(v)*imag(v)
	}
	if got := pwr / float64(n); math.Abs(got-2.5) > 0.05 {
		t.Errorf("ComplexNormal power = %v, want 2.5", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	rng := NewRand(5)
	for i := 0; i < 10000; i++ {
		v := rng.TruncNormal(0, 10, -3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestPeakSearch(t *testing.T) {
	power := []float64{1, 5, 2, 8, 3, 1, 9, 2}
	idx, val := ArgmaxFloat(power)
	if idx != 6 || val != 9 {
		t.Fatalf("ArgmaxFloat = %d,%v", idx, val)
	}
	idx, val = MaxInWindow(power, 3, 1)
	if idx != 3 || val != 8 {
		t.Fatalf("MaxInWindow = %d,%v", idx, val)
	}
	// Circular window.
	idx, _ = MaxInWindow(power, 0, 2)
	if idx != 6 {
		t.Fatalf("circular MaxInWindow = %d, want 6", idx)
	}
}

func TestWelchPSDTone(t *testing.T) {
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*0.25*float64(i)))
	}
	psd := WelchPSD(x, 256)
	idx, _ := ArgmaxFloat(psd)
	if idx != 64 { // 0.25 cycles/sample -> bin 64 of 256
		t.Fatalf("tone peak at bin %d, want 64", idx)
	}
}

func TestFFTShift(t *testing.T) {
	spec := []float64{0, 1, 2, 3}
	sh := FFTShift(spec)
	want := []float64{2, 3, 0, 1}
	for i := range want {
		if sh[i] != want[i] {
			t.Fatalf("FFTShift = %v", sh)
		}
	}
}

func TestHannWindow(t *testing.T) {
	w := HannWindow(65)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[64]) > 1e-12 {
		t.Fatal("Hann endpoints not ~0")
	}
	if math.Abs(w[32]-1) > 1e-12 {
		t.Fatal("Hann center not 1")
	}
}

// fft is the forward transform of a copy of x through its size's plan.
func fft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	Plan(len(x)).Forward(out)
	return out
}

// ifft is the inverse transform of a copy of x through its size's plan.
func ifft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	Plan(len(x)).Inverse(out)
	return out
}

// signalEnergy is sum(|x|^2) over the samples.
func signalEnergy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}
