package deploy

import (
	"math"
	"testing"
	"testing/quick"

	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

func TestWallsBetween(t *testing.T) {
	f := DefaultOffice
	// Same room: no walls.
	if got := f.WallsBetween(Point{1, 1}, Point{2, 2}); got != 0 {
		t.Fatalf("same-room walls = %d", got)
	}
	// Crossing one vertical grid line.
	a, b := Point{5, 5}, Point{8, 5} // rooms are 40/6=6.67 m wide
	if got := f.WallsBetween(a, b); got != 1 {
		t.Fatalf("adjacent-room walls = %d", got)
	}
	// Corner to corner crosses most of the grid.
	if got := f.WallsBetween(Point{1, 1}, Point{39, 19}); got < 5 {
		t.Fatalf("diagonal walls = %d", got)
	}
}

func TestWallsSymmetric(t *testing.T) {
	f := DefaultOffice
	g := func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(math.Abs(ax), f.Width), math.Mod(math.Abs(ay), f.Height)}
		b := Point{math.Mod(math.Abs(bx), f.Width), math.Mod(math.Abs(by), f.Height)}
		return f.WallsBetween(a, b) == f.WallsBetween(b, a)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeployment(t *testing.T) {
	rng := dsp.NewRand(1)
	dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, rng)
	if len(dep.Devices) != 256 {
		t.Fatalf("devices = %d", len(dep.Devices))
	}
	for i, d := range dep.Devices {
		if d.Pos.X < 0 || d.Pos.X > DefaultOffice.Width || d.Pos.Y < 0 || d.Pos.Y > DefaultOffice.Height {
			t.Fatalf("device %d outside floor: %+v", i, d.Pos)
		}
		if d.Pos.Distance(DefaultOffice.AP) < MinAPDistance {
			t.Fatalf("device %d too close to AP", i)
		}
		if d.DownlinkRSSIdBm < -60 || d.DownlinkRSSIdBm > 0 {
			t.Fatalf("device %d downlink RSSI %v implausible", i, d.DownlinkRSSIdBm)
		}
	}
}

func TestDeploymentSNRRegime(t *testing.T) {
	// The office must land in the paper's near-far regime: spread of
	// roughly 35-50 dB at max gain (35 dB tolerated after allocation
	// plus the 10 dB power-adaptation range), with the weakest devices
	// near or below the noise floor.
	rng := dsp.NewRand(2)
	dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, rng)
	spread := dep.SNRSpreadDB()
	if spread < 25 || spread > 55 {
		t.Fatalf("SNR spread %v dB outside the deployment regime", spread)
	}
	min, max := dsp.MinMax(dep.SNRs())
	if max > 31 {
		t.Fatalf("max SNR %v exceeds the AGC cap", max)
	}
	if min > 5 {
		t.Fatalf("min SNR %v — no weak devices to exercise near-far", min)
	}
}

// envelopeSensitivityDBm is the weakest query the tags' envelope
// detector demodulates: -49 dBm for the paper's COTS hardware (§4.1).
const envelopeSensitivityDBm = -49

func TestDeviceDownlinkAboveEnvelopeSensitivity(t *testing.T) {
	// Every deployed tag must be able to hear the query (-49 dBm
	// envelope detector, §4.1) — otherwise it could never associate.
	rng := dsp.NewRand(3)
	dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, rng)
	for i, d := range dep.Devices {
		if d.DownlinkRSSIdBm < envelopeSensitivityDBm {
			t.Fatalf("device %d downlink %v dBm below envelope sensitivity", i, d.DownlinkRSSIdBm)
		}
	}
}

func TestRoomsCount(t *testing.T) {
	// The paper's floor has "more than ten rooms".
	if rooms := DefaultOffice.RoomsX * DefaultOffice.RoomsY; rooms <= 10 {
		t.Fatalf("rooms = %d", rooms)
	}
}

func TestPointDistance(t *testing.T) {
	if got := (Point{0, 0}).Distance(Point{3, 4}); got != 5 {
		t.Fatalf("distance = %v", got)
	}
}

// TestAPPositionsGeometry: the deterministic placement spreads k APs
// along the *actual* long axis at the short axis's midpoint, inside the
// floor, strictly ordered — pinned table-driven for both orientations
// (the historical code always spaced along Width, stringing a tall
// floor's APs across its short axis) plus the square tie — and k=1
// reproduces each plan's central AP, the degeneracy the multi-AP
// subsystem's single-AP compatibility rests on.
func TestAPPositionsGeometry(t *testing.T) {
	tall := FloorPlan{Width: 20, Height: 40, RoomsX: 2, RoomsY: 6, AP: Point{X: 10, Y: 20}}
	square := FloorPlan{Width: 30, Height: 30, RoomsX: 3, RoomsY: 3, AP: Point{X: 15, Y: 15}}
	cases := []struct {
		name string
		plan FloorPlan
		// axis extracts (along-long-axis, across) from a point.
		axis func(p Point) (along, across float64)
		mid  float64 // expected across-coordinate: midpoint of the short axis
	}{
		{"wide", DefaultOffice, func(p Point) (float64, float64) { return p.X, p.Y }, DefaultOffice.Height / 2},
		{"tall", tall, func(p Point) (float64, float64) { return p.Y, p.X }, tall.Width / 2},
		// A square floor keeps the historical X-axis layout (the tie
		// breaks toward Width).
		{"square", square, func(p Point) (float64, float64) { return p.X, p.Y }, square.Height / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			long := math.Max(tc.plan.Width, tc.plan.Height)
			for _, k := range []int{1, 2, 4, 8} {
				pts := APPositions(tc.plan, k)
				if len(pts) != k {
					t.Fatalf("k=%d: %d positions", k, len(pts))
				}
				prev := math.Inf(-1)
				for a, p := range pts {
					if p.X <= 0 || p.X >= tc.plan.Width || p.Y <= 0 || p.Y >= tc.plan.Height {
						t.Fatalf("k=%d AP %d outside floor: %+v", k, a, p)
					}
					along, across := tc.axis(p)
					if across != tc.mid {
						t.Fatalf("k=%d AP %d off the short-axis midpoint: %+v", k, a, p)
					}
					if want := float64(2*a+1) * long / float64(2*k); along != want {
						t.Fatalf("k=%d AP %d at %v along the long axis, want %v", k, a, along, want)
					}
					if along <= prev {
						t.Fatalf("k=%d APs not strictly ordered: %+v", k, pts)
					}
					prev = along
				}
			}
			if one := APPositions(tc.plan, 1)[0]; one != tc.plan.AP {
				t.Fatalf("k=1 placement %+v != classic AP %+v", one, tc.plan.AP)
			}
		})
	}
}

// TestPlaceAPsCoverage: table-driven over k ∈ {1, 2, 4} — every device
// must be within budget of at least one AP (best-AP downlink above the
// envelope-detector sensitivity, so every tag can hear a query), every
// per-AP link must be fully populated with plausible values, and link
// budgets must be the exact budget-model outputs for the recorded
// distance/walls geometry.
func TestPlaceAPsCoverage(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		rng := dsp.NewRand(4)
		dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 128, 500e3, rng)
		dep.PlaceAPs(k)
		if len(dep.APs) != k {
			t.Fatalf("k=%d: %d APs placed", k, len(dep.APs))
		}
		for i := range dep.Devices {
			dev := &dep.Devices[i]
			if len(dev.APLinks) != k {
				t.Fatalf("k=%d device %d has %d links", k, i, len(dev.APLinks))
			}
			best := dev.BestAP()
			if best < 0 || best >= k {
				t.Fatalf("k=%d device %d best AP %d", k, i, best)
			}
			bestDown := dev.APLinks[0].DownlinkRSSIdBm
			for a, l := range dev.APLinks {
				if want := dev.Pos.Distance(dep.APs[a]); l.Dist != want {
					t.Fatalf("k=%d device %d AP %d dist %v != %v", k, i, a, l.Dist, want)
				}
				if want := dep.Budget.UplinkSNRdB(l.Dist, l.Walls, 0, dep.BWHz); l.UplinkSNRdB != want {
					t.Fatalf("k=%d device %d AP %d SNR %v != budget %v", k, i, a, l.UplinkSNRdB, want)
				}
				if l.DownlinkRSSIdBm > bestDown {
					bestDown = l.DownlinkRSSIdBm
				}
			}
			if bestDown < envelopeSensitivityDBm {
				t.Fatalf("k=%d device %d best downlink %v dBm below envelope sensitivity — uncovered",
					k, i, bestDown)
			}
		}
	}
}

// TestPlaceAPsWallsSymmetric: WallsBetween is symmetric for every
// AP↔device pair of every placement — the wall count a device's uplink
// sees is the wall count the AP's downlink sees.
func TestPlaceAPsWallsSymmetric(t *testing.T) {
	rng := dsp.NewRand(6)
	dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	for _, k := range []int{1, 2, 4} {
		dep.PlaceAPs(k)
		for i := range dep.Devices {
			dev := &dep.Devices[i]
			for a, ap := range dep.APs {
				fwd := dep.Plan.WallsBetween(dev.Pos, ap)
				rev := dep.Plan.WallsBetween(ap, dev.Pos)
				if fwd != rev {
					t.Fatalf("k=%d device %d AP %d: walls %d forward, %d reverse", k, i, a, fwd, rev)
				}
				if fwd != dev.APLinks[a].Walls {
					t.Fatalf("k=%d device %d AP %d: recorded walls %d, geometry %d",
						k, i, a, dev.APLinks[a].Walls, fwd)
				}
			}
		}
	}
}

// TestPlaceAPsSNRSpreadRegression: densifying the infrastructure
// shrinks the near-far problem — the best-AP SNR spread is monotone
// non-increasing in k, and the weakest best-AP link is monotone
// non-decreasing (every extra AP can only shorten someone's best
// path). Pinned per seed; a placement or budget regression that
// weakens coverage trips this.
func TestPlaceAPsSNRSpreadRegression(t *testing.T) {
	for _, seed := range []int64{2, 9, 31} {
		rng := dsp.NewRand(seed)
		dep := Generate(DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, rng)
		prevSpread := math.Inf(1)
		prevMin := math.Inf(-1)
		for _, k := range []int{1, 2, 4} {
			dep.PlaceAPs(k)
			spread := dep.BestSNRSpreadDB()
			min, _ := dsp.MinMax(dep.BestSNRs())
			if spread > prevSpread {
				t.Fatalf("seed %d: spread grew %v -> %v dB going to k=%d", seed, prevSpread, spread, k)
			}
			if min < prevMin {
				t.Fatalf("seed %d: weakest best-AP SNR fell %v -> %v dB going to k=%d", seed, prevMin, min, k)
			}
			prevSpread, prevMin = spread, min
		}
		// k=1 must reproduce the classic single-AP spread exactly.
		dep.PlaceAPs(1)
		if got, want := dep.BestSNRSpreadDB(), dep.SNRSpreadDB(); got != want {
			t.Fatalf("seed %d: 1-AP spread %v != classic %v", seed, got, want)
		}
	}
}
