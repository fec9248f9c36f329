package serve

// RunLocal is the in-process twin of a hosted deployment: it builds
// the tenant world exactly as POST /v1/deployments would (geometry
// from Seed, network from Seed+1, trajectory when adversity is set)
// and runs rounds through the same step path the scheduler uses, so a
// config stepped locally and the same config stepped on a live
// netscatter-serve instance accumulate bit-identical snapshots. The
// campaign runner uses this as its local executor; the equivalence is
// test-enforced from both internal/campaign and internal/exper.

import "netscatter/internal/sim"

// RunLocal executes rounds of one deployment config in-process and
// returns the accumulated snapshot.
func RunLocal(cfg DeploymentConfig, rounds int) (sim.Snapshot, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(Config{}.withDefaults().MaxDevices); err != nil {
		return sim.Snapshot{}, err
	}
	t, err := buildTenant(cfg)
	if err != nil {
		return sim.Snapshot{}, err
	}
	for i := 0; i < rounds; i++ {
		stats, err := t.step()
		if err != nil {
			return sim.Snapshot{}, err
		}
		t.acc.AddMulti(stats, t.net.SoftCombining())
	}
	return t.acc.Snapshot(), nil
}
