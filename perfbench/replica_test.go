package main

import (
	"testing"

	"github.com/dessertlab/certify/internal/core"
)

// TestReplicaMatchesRunner pins the traced run's phase-by-phase replica to
// core.RunExperimentOpts: on every built-in plan, in both retention modes,
// a handful of seeds must give the same outcome, trace hash, injection
// count and detection latency. If the runner's internals drift, this test
// fails before the benchmark measures a different program.
func TestReplicaMatchesRunner(t *testing.T) {
	pool := core.NewMachinePool()
	for _, name := range core.BuiltinPlanNames() {
		plan, err := core.PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.CampaignMode{core.ModeDistribution, core.ModeFull} {
			rp := newReplica(newTracer(), pool, mode)
			for i, seed := range campaignSeeds(0x5eed+uint64(len(name)), 0, 3) {
				r, err := rp.run(plan, seed, i, -1)
				if err != nil {
					t.Fatalf("%s %s seed %#x: %v", name, mode, seed, err)
				}
				if err := verifyOne(r, mode, pool); err != nil {
					t.Errorf("%s %s: %v", name, mode, err)
				}
			}
		}
	}
}
