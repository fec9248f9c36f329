// Package deploy generates the office-floor testbed geometry the paper
// evaluates on (Fig. 1): 256 backscatter devices spread across a floor
// with more than ten rooms, an AP near the center, and per-device link
// budgets derived from distance and intervening walls. The output is
// the per-device SNR distribution that drives the near-far machinery
// and the rate-adaptation baselines.
package deploy

import (
	"math"

	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

// Point is a floor-plan coordinate in meters.
type Point struct{ X, Y float64 }

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// FloorPlan is a rectangular office floor partitioned into a grid of
// rooms by interior walls.
type FloorPlan struct {
	// Width and Height of the floor in meters.
	Width, Height float64
	// RoomsX and RoomsY give the room grid (RoomsX·RoomsY rooms).
	RoomsX, RoomsY int
	// AP is the access point position.
	AP Point
}

// DefaultOffice is a 40x20 m floor with a 6x2 room grid (12 rooms,
// matching the paper's "more than ten rooms") and the AP at the center.
var DefaultOffice = FloorPlan{
	Width:  40,
	Height: 20,
	RoomsX: 6,
	RoomsY: 2,
	AP:     Point{X: 20, Y: 10},
}

// WallsBetween counts interior walls crossed by the straight segment
// from a to b: the number of room-grid lines the segment crosses.
func (f FloorPlan) WallsBetween(a, b Point) int {
	walls := 0
	// Vertical grid lines at k·Width/RoomsX.
	for k := 1; k < f.RoomsX; k++ {
		x := float64(k) * f.Width / float64(f.RoomsX)
		if (a.X-x)*(b.X-x) < 0 {
			walls++
		}
	}
	for k := 1; k < f.RoomsY; k++ {
		y := float64(k) * f.Height / float64(f.RoomsY)
		if (a.Y-y)*(b.Y-y) < 0 {
			walls++
		}
	}
	return walls
}

// Device is one placed backscatter tag.
type Device struct {
	Pos   Point
	Walls int // interior walls to the AP
	// DownlinkRSSIdBm is the AP query strength at the tag.
	DownlinkRSSIdBm float64
	// UplinkSNRdB is the backscatter SNR at the AP over the receive
	// bandwidth at maximum tag power gain (0 dB).
	UplinkSNRdB float64
	// APLinks holds the per-AP link budgets from the last PlaceAPs
	// call, parallel to Deployment.APs; nil until APs are placed. It
	// lives on the device (not the deployment) so sub-deployments
	// built by copying device slices keep their geometry.
	APLinks []APLink
}

// BestAP returns the index of the AP with the strongest uplink from
// this device, or -1 when no APs have been placed.
func (d *Device) BestAP() int {
	best := -1
	for a := range d.APLinks {
		if best < 0 || d.APLinks[a].UplinkSNRdB > d.APLinks[best].UplinkSNRdB {
			best = a
		}
	}
	return best
}

// APLink is the link budget between one device and one placed AP.
type APLink struct {
	// Dist is the device↔AP distance in meters.
	Dist float64
	// Walls is the number of interior walls between device and AP.
	Walls int
	// DownlinkRSSIdBm is this AP's query strength at the tag.
	DownlinkRSSIdBm float64
	// UplinkSNRdB is the backscatter SNR at this AP at maximum tag
	// power gain (0 dB).
	UplinkSNRdB float64
}

// Deployment is a generated testbed.
type Deployment struct {
	Plan    FloorPlan
	Budget  radio.LinkBudget
	Devices []Device
	// BWHz is the receive bandwidth the uplink SNRs were computed over
	// (set by Generate, reused by PlaceAPs).
	BWHz float64
	// APs holds the multi-AP positions from the last PlaceAPs call;
	// empty for classic single-AP deployments (Plan.AP only).
	APs []Point
}

// MinAPDistance keeps devices out of the AP's immediate vicinity. The
// paper's mono-static reader uses co-located TX/RX antennas 3 ft apart
// at 30 dBm; tags closer than a few meters would saturate the front end
// even with AGC.
const MinAPDistance = 5.0

// DefaultBandwidthHz is the paper's receive bandwidth (500 kHz), used
// when a deployment carries no explicit bandwidth: Generate substitutes
// it for a non-positive bwHz, and bandwidth() falls back to it for
// legacy hand-built/decoded deployments whose BWHz field predates its
// introduction.
const DefaultBandwidthHz = 500e3

// bandwidth returns the bandwidth per-AP SNRs are computed over.
// Generate always populates BWHz, so the fallback only fires for legacy
// deployments built by hand or decoded from pre-BWHz artifacts.
func (d *Deployment) bandwidth() float64 {
	if d.BWHz > 0 {
		return d.BWHz
	}
	return DefaultBandwidthHz
}

// Generate places n devices uniformly over the floor (at least
// MinAPDistance from the AP) and computes their link budgets over bwHz.
// A non-positive bwHz is replaced by DefaultBandwidthHz, so a generated
// deployment always carries the bandwidth its SNRs were computed over —
// PlaceAPs never has to guess it.
func Generate(plan FloorPlan, budget radio.LinkBudget, n int, bwHz float64, rng *dsp.Rand) *Deployment {
	if bwHz <= 0 {
		bwHz = DefaultBandwidthHz
	}
	d := &Deployment{Plan: plan, Budget: budget, BWHz: bwHz}
	d.Devices = make([]Device, 0, n)
	for len(d.Devices) < n {
		p := Point{X: rng.Uniform(0.5, plan.Width-0.5), Y: rng.Uniform(0.5, plan.Height-0.5)}
		dist := p.Distance(plan.AP)
		if dist < MinAPDistance {
			continue
		}
		walls := plan.WallsBetween(p, plan.AP)
		d.Devices = append(d.Devices, Device{
			Pos:             p,
			Walls:           walls,
			DownlinkRSSIdBm: budget.DownlinkRSSIdBm(dist, walls),
			UplinkSNRdB:     budget.UplinkSNRdB(dist, walls, 0, bwHz),
		})
	}
	return d
}

// APPositions returns the deterministic k-AP placement for a floor:
// APs evenly spaced along the long axis at the midpoint of the short
// axis — position (2a+1)·L/(2k) along the long axis, L/2 across. A
// floor with Height > Width lines up along Y instead of X (the
// historical code always spaced along Width, stringing a tall floor's
// APs across its short dimension). For k = 1 this is the floor center —
// the DefaultOffice's single AP — so a one-AP multi deployment
// reproduces the classic geometry exactly.
func APPositions(plan FloorPlan, k int) []Point {
	pts := make([]Point, k)
	for a := 0; a < k; a++ {
		along := float64(2*a+1) / float64(2*k)
		if plan.Height > plan.Width {
			pts[a] = Point{X: plan.Width / 2, Y: along * plan.Height}
		} else {
			pts[a] = Point{X: along * plan.Width, Y: plan.Height / 2}
		}
	}
	return pts
}

// PlaceAPs places k APs on the floor (APPositions) and computes every
// device's per-AP link budget over the deployment's bandwidth,
// populating Deployment.APs and each Device.APLinks. Placement is a
// pure function of (plan, budget, device positions, k) — no randomness
// — so it is idempotent and replayable. Devices were generated at
// least MinAPDistance from the central AP but may sit arbitrarily
// close to the placed ones; the link budget's AGC cap bounds their
// received SNR the same way it bounds the classic deployment's.
//
// Not safe to call concurrently with readers of the same deployment;
// place APs before fanning networks out over a shared deployment.
func (d *Deployment) PlaceAPs(k int) []Point {
	return d.PlaceAPsAt(APPositions(d.Plan, k))
}

// PlaceAPsAt places the given AP positions and computes every device's
// per-AP link budget over the deployment's bandwidth — PlaceAPs with
// caller-chosen geometry (the placement optimizer's apply step, or any
// custom infrastructure layout). The positions are copied; the caller's
// slice is not retained.
func (d *Deployment) PlaceAPsAt(pts []Point) []Point {
	bw := d.bandwidth()
	k := len(pts)
	d.APs = append(d.APs[:0], pts...)
	for i := range d.Devices {
		dev := &d.Devices[i]
		if cap(dev.APLinks) < k {
			dev.APLinks = make([]APLink, k)
		}
		dev.APLinks = dev.APLinks[:k]
		for a, ap := range d.APs {
			dist := dev.Pos.Distance(ap)
			walls := d.Plan.WallsBetween(dev.Pos, ap)
			dev.APLinks[a] = APLink{
				Dist:            dist,
				Walls:           walls,
				DownlinkRSSIdBm: d.Budget.DownlinkRSSIdBm(dist, walls),
				UplinkSNRdB:     d.Budget.UplinkSNRdB(dist, walls, 0, bw),
			}
		}
	}
	return d.APs
}

// RelinkDevice recomputes device i's link budgets from its current
// position: distance, wall count, downlink RSSI and uplink SNR to the
// floor plan's central AP, and — when APs have been placed — every
// entry of APLinks, in place. This is the mobility path's re-derivation
// step: a trajectory that moves a device calls this so path loss and
// wall counts track the new position exactly as Generate/PlaceAPs would
// have computed them there (same formulas, no randomness).
func (d *Deployment) RelinkDevice(i int) {
	bw := d.bandwidth()
	dev := &d.Devices[i]
	dist := dev.Pos.Distance(d.Plan.AP)
	walls := d.Plan.WallsBetween(dev.Pos, d.Plan.AP)
	dev.Walls = walls
	dev.DownlinkRSSIdBm = d.Budget.DownlinkRSSIdBm(dist, walls)
	dev.UplinkSNRdB = d.Budget.UplinkSNRdB(dist, walls, 0, bw)
	for a, ap := range d.APs {
		dist := dev.Pos.Distance(ap)
		walls := d.Plan.WallsBetween(dev.Pos, ap)
		dev.APLinks[a] = APLink{
			Dist:            dist,
			Walls:           walls,
			DownlinkRSSIdBm: d.Budget.DownlinkRSSIdBm(dist, walls),
			UplinkSNRdB:     d.Budget.UplinkSNRdB(dist, walls, 0, bw),
		}
	}
}

// MoveDevice offsets device i by (dx, dy), clamps the result to the
// floor's placeable band (0.5 m margin, as Generate uses), and relinks
// it. Mobility may carry a device inside MinAPDistance of an AP; the
// link budget's AGC cap bounds the received SNR there, so the clamp is
// purely geometric.
func (d *Deployment) MoveDevice(i int, dx, dy float64) {
	dev := &d.Devices[i]
	dev.Pos.X = clamp(dev.Pos.X+dx, 0.5, d.Plan.Width-0.5)
	dev.Pos.Y = clamp(dev.Pos.Y+dy, 0.5, d.Plan.Height-0.5)
	d.RelinkDevice(i)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BestSNRs returns each device's best-AP uplink SNR (the diversity
// network's effective per-device strength). Requires PlaceAPs.
func (d *Deployment) BestSNRs() []float64 {
	out := make([]float64, len(d.Devices))
	for i := range d.Devices {
		dev := &d.Devices[i]
		best := dev.BestAP()
		if best < 0 {
			panic("deploy: BestSNRs before PlaceAPs — no AP links placed")
		}
		out[i] = dev.APLinks[best].UplinkSNRdB
	}
	return out
}

// BestSNRSpreadDB returns the max-min spread of best-AP uplink SNRs —
// the near-far range a multi-AP deployment actually has to absorb.
func (d *Deployment) BestSNRSpreadDB() float64 {
	min, max := dsp.MinMax(d.BestSNRs())
	return max - min
}

// SNRs returns the uplink SNRs of all devices.
func (d *Deployment) SNRs() []float64 {
	out := make([]float64, len(d.Devices))
	for i, dev := range d.Devices {
		out[i] = dev.UplinkSNRdB
	}
	return out
}

// SNRSpreadDB returns the max-min uplink SNR spread, the quantity the
// power-aware allocation and power adaptation must absorb (up to ~35 dB
// per §4.3).
func (d *Deployment) SNRSpreadDB() float64 {
	min, max := dsp.MinMax(d.SNRs())
	return max - min
}
