package serve

import (
	"runtime"
	"testing"
)

// TestTenantFootprint bounds the live heap one small resident tenant
// costs: 64 tenants of 2 devices at SF6, each stepped 4 rounds, must
// hold at most 100 KB apiece. A tenant owns its round, channel and
// decoder result arenas; per-call decode scratch (planar FFT tiles,
// preamble rows, quantile buffers) is borrowed from the process-wide
// dsp free list, so it scales with the decodes in flight, not with the
// tenants.
func TestTenantFootprint(t *testing.T) {
	const (
		tenants    = 64
		rounds     = 4
		limitBytes = 100e3 // per tenant
	)
	before := heapInUse()
	fleet := make([]*tenant, tenants)
	for i := range fleet {
		tn, err := buildTenant(smallCfg(int64(i + 1)).withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			stats, err := tn.net.RunRound(tn.cfg.Devices)
			if err != nil {
				t.Fatal(err)
			}
			tn.acc.AddMulti(stats, false)
		}
		fleet[i] = tn
	}
	after := heapInUse()
	runtime.KeepAlive(fleet)

	per := (float64(after) - float64(before)) / tenants
	t.Logf("live heap %.1f KB per tenant (%d tenants, %d rounds each)", per/1e3, tenants, rounds)
	if per > limitBytes {
		t.Fatalf("live heap %.1f KB per tenant; want <= %.0f KB", per/1e3, limitBytes/1e3)
	}
}
