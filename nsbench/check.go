package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// The output check. reference.json commits, per workload, the totals
// of a canonical run (fixed deployment seeds, the committed round
// count) that every run repeats after its timed phase. A run passes
// when the round and device-round counts match exactly and PER and BER
// sit within the stated absolute tolerances; an exact match (every counter, and the
// artifact SHA-256 for campaign-office) is reported separately, so a
// change that moves bits is visible even when it passes.

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	// PERTol and BERTol bound |PER − PER_ref| and |BER − BER_ref| for
	// the canonical run.
	PERTol float64 `json:"per_tolerance"`
	BERTol float64 `json:"ber_tolerance"`
	// SeededPERTol bounds how far the seeded (timed) run's PER may sit
	// from the canonical PER: a plausibility band, since the seed
	// changes the deployment.
	SeededPERTol float64           `json:"seeded_per_tolerance"`
	Workloads    map[string]totals `json:"workloads"`
}

// loadReference returns the tolerances and a workload's canonical
// totals.
func loadReference(workload string) (reference, totals, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, totals{}, fmt.Errorf("reference.json: %w", err)
	}
	w, ok := ref.Workloads[workload]
	if !ok {
		return ref, totals{}, fmt.Errorf("reference.json has no entry for %s", workload)
	}
	return ref, w, nil
}

// compareTotals checks a canonical run's totals against the reference.
func compareTotals(name string, got, want totals, ref reference) check {
	dPER := math.Abs(got.per() - want.per())
	dBER := math.Abs(got.ber() - want.ber())
	c := check{
		Name:  name,
		Exact: got == want,
		OK: got.Rounds == want.Rounds && got.DeviceRounds == want.DeviceRounds &&
			dPER <= ref.PERTol && dBER <= ref.BERTol,
	}
	c.Detail = fmt.Sprintf("rounds=%d device_rounds=%d per=%.5f (ref %.5f, |d|<=%g) ber=%.5f (ref %.5f, |d|<=%g)",
		got.Rounds, got.DeviceRounds, got.per(), want.per(), ref.PERTol, got.ber(), want.ber(), ref.BERTol)
	if !c.Exact {
		data, _ := json.Marshal(got) // plain struct: cannot fail
		c.Detail += " got=" + string(data)
	}
	return c
}

// plausible checks a seeded run's PER against the canonical one.
func plausible(got totals, want totals, ref reference) check {
	d := math.Abs(got.per() - want.per())
	return check{
		Name:   "seeded-per-plausible",
		OK:     d <= ref.SeededPERTol,
		Exact:  d == 0,
		Detail: fmt.Sprintf("per=%.5f canonical=%.5f |d|<=%g", got.per(), want.per(), ref.SeededPERTol),
	}
}

// sameTotals is an exact equality check between two paths.
func sameTotals(name string, got, want totals) check {
	c := check{Name: name, OK: got == want, Exact: got == want}
	g, _ := json.Marshal(got) // plain structs: cannot fail
	w, _ := json.Marshal(want)
	c.Detail = "got=" + string(g)
	if !c.OK {
		c.Detail += " want=" + string(w)
	}
	return c
}
