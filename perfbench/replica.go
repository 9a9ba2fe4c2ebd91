package main

import (
	"fmt"
	"sync"

	"github.com/dessertlab/certify/internal/armv7"
	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/jailhouse"
	"github.com/dessertlab/certify/internal/sim"
)

// The traced run drives each run's phases itself, in the order
// core.RunExperimentOpts takes them, so a span can sit around every call
// into a layer: MachinePool.Get → NewInjector/ArmWindow/BindMachine →
// Machine.Run → Classify → Trace().Hash() → JSONLWriter.OnRun → Put.
// As on the runner's artefact path, the trace digest is folded on append:
// the catch-up over the records the restored machine already holds and
// the final read are spanned, and the folding during the run falls inside
// the Machine.Run span. Every replicated run is checked against
// core.RunExperimentOpts on the same seed (verifyReplica) before its
// numbers are used.

// machineOptions mirrors the machine configuration core.RunExperimentOpts
// derives from a plan. If the runner's derivation drifts, the replica's
// trace hashes stop matching and verifyReplica fails the run.
func machineOptions(plan *core.TestPlan, seed uint64, mode core.CampaignMode) core.MachineOptions {
	opts := core.MachineOptions{Seed: seed, StateWatchdog: true}
	opts.TraceRecords, opts.TraceArgs = core.TraceBudget(plan)
	if mode == core.ModeDistribution {
		opts.LeanCapture = true
	}
	switch plan.Workload {
	case core.WorkloadManagement:
		opts.RecreateLoop = true
		opts.RecreatePeriod = 5 * sim.Second
	case core.WorkloadDelayedCreate:
		opts.DelayedCreate = true
	}
	return opts
}

// runCounts are the per-run counts the traced run records beside its
// spans. They are properties of the modelled behaviour: for a given seed
// they repeat exactly.
type runCounts struct {
	events    uint64
	records   int
	hookCalls uint64
}

// replicaRun is the record of one traced run.
type replicaRun struct {
	index  int
	plan   *core.TestPlan
	seed   uint64
	res    *core.RunResult
	counts runCounts
}

// replica executes runs phase by phase on a shared pool.
type replica struct {
	tr    *tracer
	pool  *core.MachinePool
	mode  core.CampaignMode
	onRun func(index int, r *core.RunResult)

	mu   sync.Mutex
	seen map[*core.Machine]bool
}

func newReplica(tr *tracer, pool *core.MachinePool, mode core.CampaignMode) *replica {
	return &replica{tr: tr, pool: pool, mode: mode, seen: make(map[*core.Machine]bool)}
}

// run executes one run of plan with seed as global run index. parent is
// the enclosing span.
func (rp *replica) run(plan *core.TestPlan, seed uint64, index, parent int) (*replicaRun, error) {
	tr := rp.tr
	runID := tr.newRun()
	top := tr.begin("run", parent, runID)
	defer tr.end(top)

	opts := machineOptions(plan, seed, rp.mode)
	s := tr.begin("core.restore", top, runID)
	m, err := rp.pool.Get(opts)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("pool get: %w", err)
	}
	rp.mu.Lock()
	cold := !rp.seen[m]
	rp.seen[m] = true
	rp.mu.Unlock()
	if cold {
		tr.rename(s, "core.build")
	}

	s = tr.begin("sim.trace_hash_catchup", top, runID)
	m.Board.Trace().SetIncrementalHash(true)
	tr.end(s)

	s = tr.begin("core.inject_setup", top, runID)
	injSeed := seed
	rng := sim.NewRNG(sim.SplitMix64(&injSeed))
	inj, err := core.NewInjector(plan, core.DefaultProfile(), rng, m.Board.Now)
	if err != nil {
		tr.end(s)
		rp.pool.Put(m)
		return nil, fmt.Errorf("injector: %w", err)
	}
	from := m.Board.Now()
	if plan.Workload == core.WorkloadSteady {
		from += 2 * sim.Second
	}
	inj.ArmWindow(from, m.Board.Now()+plan.EffectiveDuration())
	inj.BindMachine(m)
	var hookCalls uint64
	m.HV.Hook = func(p jailhouse.InjectionPoint, cpu int, cell string, ctx *armv7.TrapContext) jailhouse.InjectionResult {
		hookCalls++
		return inj.Hook(p, cpu, cell, ctx)
	}
	tr.end(s)

	s = tr.begin("sim.run", top, runID)
	m.Run(plan.EffectiveDuration())
	tr.end(s)

	s = tr.begin("core.classify", top, runID)
	res := &core.RunResult{
		Plan:             plan.Name,
		Seed:             seed,
		Verdict:          core.Classify(m),
		Injections:       inj.Records(),
		CellLines:        m.Board.UART7.LineCount(),
		Horizon:          m.Board.Now(),
		DetectionLatency: detectionLatency(m, inj.FirstInjectionAt()),
	}
	if rp.mode == core.ModeFull {
		res.CallCounts = inj.Calls()
		res.RootTranscript = m.Board.UART0.Transcript()
		res.CellTranscript = m.Board.UART7.Transcript()
		res.HVConsole = append([]string(nil), m.HV.ConsoleLines...)
	}
	if m.RTOS != nil {
		res.LEDToggles = m.RTOS.LEDToggleCount()
	}
	tr.end(s)

	counts := runCounts{
		events:    m.Board.Engine.Executed(),
		records:   m.Board.Trace().Len(),
		hookCalls: hookCalls,
	}

	s = tr.begin("sim.trace_hash", top, runID)
	res.TraceHash = m.Board.Trace().Hash()
	tr.end(s)

	if rp.onRun != nil {
		s = tr.begin("dist.encode", top, runID)
		rp.onRun(index, res)
		tr.end(s)
	}

	s = tr.begin("core.put", top, runID)
	rp.pool.Put(m)
	tr.end(s)
	return &replicaRun{index: index, plan: plan, seed: seed, res: res, counts: counts}, nil
}

// campaign runs indices [offset, offset+len(seeds)) with workers
// goroutines; onRun sees runs in completion order, as in core.Campaign's
// fixed-N path.
func (rp *replica) campaign(plan *core.TestPlan, seeds []uint64, offset, workers, parent int) ([]*replicaRun, error) {
	out := make([]*replicaRun, len(seeds))
	errs := make([]error, len(seeds))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = rp.run(plan, seeds[i], offset+i, parent)
			}
		}()
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("traced run %d: %w", offset+i, err)
		}
	}
	return out, nil
}

// verifyReplica re-executes every traced run through core.RunExperimentOpts
// on the same seed and compares outcome, trace hash and injection count.
// It runs outside any span.
func verifyReplica(runs []*replicaRun, mode core.CampaignMode, pool *core.MachinePool, workers int) error {
	errs := make([]error, len(runs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = verifyOne(runs[i], mode, pool)
			}
		}()
	}
	for i := range runs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func verifyOne(r *replicaRun, mode core.CampaignMode, pool *core.MachinePool) error {
	want, err := core.RunExperimentOpts(r.plan, r.seed, core.RunOptions{Mode: mode, Pool: pool, CaptureTraceHash: true})
	if err != nil {
		return fmt.Errorf("reference run %s seed %#x: %w", r.plan.Name, r.seed, err)
	}
	if want.Outcome() != r.res.Outcome() || want.TraceHash != r.res.TraceHash ||
		len(want.Injections) != len(r.res.Injections) || want.DetectionLatency != r.res.DetectionLatency {
		return fmt.Errorf("traced replica of %s seed %#x (run %d) diverges from core.RunExperimentOpts: outcome %v/%v, trace hash %#x/%#x, injections %d/%d",
			r.plan.Name, r.seed, r.index, r.res.Outcome(), want.Outcome(), r.res.TraceHash, want.TraceHash,
			len(r.res.Injections), len(want.Injections))
	}
	return nil
}

// detectionLatency measures first injection → first detection event, as
// the runner does: a park, a panic, an internal HYP trap or a wedge at
// or after the first injection; -1 when nothing was injected or seen.
func detectionLatency(m *core.Machine, first sim.Time) sim.Time {
	if first < 0 {
		return -1
	}
	latency := sim.Time(-1)
	m.Board.Trace().ScanMeta(func(at sim.Time, kind sim.Kind, _ int) bool {
		switch kind {
		case sim.KindPark, sim.KindPanic, sim.KindHypTrap, sim.KindWedge:
			if at >= first {
				latency = at - first
				return false
			}
		}
		return true
	})
	return latency
}

// campaignSeeds derives the per-run seeds of the window [offset,
// offset+n) of master's SplitMix64 chain, as core.Campaign does.
func campaignSeeds(master uint64, offset, n int) []uint64 {
	state := master
	for i := 0; i < offset; i++ {
		sim.SplitMix64(&state)
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = sim.SplitMix64(&state)
	}
	return seeds
}

// aggregate folds replica runs into a campaign result.
func aggregate(plan string, runs []*replicaRun) *core.CampaignResult {
	agg := &core.CampaignResult{Plan: plan}
	for _, r := range runs {
		agg.AddSample(r.res.Outcome(), len(r.res.Injections), r.res.DetectionLatency)
	}
	return agg
}
