package choir

import (
	"math"
	"testing"
	"testing/quick"

	"netscatter/internal/dsp"
)

func TestPaperQuotedNumbers(t *testing.T) {
	// §2.2: unique-fraction probability ~30% at N=5.
	if got := UniqueFractionProb(5); math.Abs(got-0.302) > 0.005 {
		t.Fatalf("UniqueFractionProb(5) = %v, want ~0.30", got)
	}
	// Same-shift collisions at SF 9: ~9% for N=10, ~32% for N=20.
	if got := SameShiftCollisionProb(10, 9); math.Abs(got-0.085) > 0.01 {
		t.Fatalf("collision(10) = %v, want ~0.09", got)
	}
	if got := SameShiftCollisionProb(20, 9); math.Abs(got-0.31) > 0.02 {
		t.Fatalf("collision(20) = %v, want ~0.32", got)
	}
}

func TestUniqueFractionEdge(t *testing.T) {
	if UniqueFractionProb(1) != 1 {
		t.Fatal("single device always unique")
	}
	if UniqueFractionProb(11) != 0 {
		t.Fatal("pigeonhole: 11 devices cannot be unique in 10 fractions")
	}
}

func TestAnalyticVsApprox(t *testing.T) {
	// The paper's small-n approximation should track the exact value.
	for _, n := range []int{2, 5, 10} {
		exact := SameShiftCollisionProb(n, 9)
		approx := SameShiftCollisionApprox(n, 9)
		if math.Abs(exact-approx)/exact > 0.1 {
			t.Fatalf("n=%d: exact %v vs approx %v", n, exact, approx)
		}
	}
}

func TestMonteCarloAgreement(t *testing.T) {
	rng := dsp.NewRand(1)
	for _, n := range []int{5, 10, 20} {
		mc := MonteCarloSameShift(n, 9, 50000, rng)
		exact := SameShiftCollisionProb(n, 9)
		if math.Abs(mc-exact) > 0.02 {
			t.Fatalf("n=%d: MC %v vs exact %v", n, mc, exact)
		}
	}
	mc := MonteCarloUniqueFraction(5, 50000, rng)
	if math.Abs(mc-UniqueFractionProb(5)) > 0.02 {
		t.Fatalf("unique-fraction MC %v", mc)
	}
}

func TestCollisionMonotonicQuick(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw)%30 + 2
		// More devices, more collisions; higher SF, fewer.
		return SameShiftCollisionProb(n+1, 9) >= SameShiftCollisionProb(n, 9) &&
			SameShiftCollisionProb(n, 10) <= SameShiftCollisionProb(n, 9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
