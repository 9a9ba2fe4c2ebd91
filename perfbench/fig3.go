package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
)

// fig3-evidence: the certifier's production path. A fixed-N Figure-3
// campaign (E3-fig3, 60 s horizon, distribution mode) is split into two
// shards that run one after the other, each with nproc workers on one
// shared MachinePool, each streaming a JSONL artefact through
// dist.ExecuteShardPool. dist.Merge folds the shards and Dossier.RawRun
// reads follow. This is the only workload where the trace hash and the
// dist layer do real work.
//
// A campaign is the paper's 40 runs (the seed-2022 golden campaign has the
// same size). The reads follow examples/inspectdossier, which reads every
// run record once; here the order is drawn from the seed.
//
// The shards keep nproc workers on purpose: with more than one worker the
// fixed-N path writes records in completion order, and
// dist.raw_is_canonical reports how often an artefact still equals its
// canonical bytes. Nothing here reorders records; checks compare them by
// index.
const (
	fig3Runs   = 40
	fig3Shards = 2
)

// evidencePass holds the timings of one pass through the evidence path:
// the job (shards and merge) and the whole pass (with the reads).
type evidencePass struct {
	job, pass   interval
	exec, merge time.Duration
	reads       []time.Duration
	merged      *core.CampaignResult
	shards      []*dist.ShardFile
	lines       map[int][]byte
}

func runFig3(b *bench) error {
	plan := core.PlanE3Fig3()
	var builds []float64
	pool, err := setup(b, func() (*core.MachinePool, error) {
		p := core.NewMachinePool()
		bt, err := warmPool(p, []core.MachineOptions{machineOptions(plan, 0, core.ModeDistribution)}, b.nproc)
		builds = append(builds, bt...)
		return p, err
	}, func(*core.MachinePool) {})
	if err != nil {
		return err
	}
	b.metrics["core.build_ms"] = metric{mean(builds), "ms"}
	buildsBefore, _ := pool.Stats()

	var (
		merges, reads         []float64
		untracedNS, tracedNS  float64
		tracedRuns, firstRuns []*replicaRun
		artefacts, canonical  int
		recordBytes           []float64
	)
	// The loop runs for the measured seconds of wall time, checks and, in a
	// traced run, the replica checks included.
	for iter, begin := 0, time.Now(); time.Since(begin) < b.seconds; iter++ {
		spec := &dist.Spec{Plan: plan, Runs: fig3Runs, MasterSeed: b.nextSeed(), Shards: fig3Shards, Mode: core.ModeDistribution}
		rng := rand.New(rand.NewPCG(spec.MasterSeed, uint64(iter)))
		readIdx := rng.Perm(fig3Runs)
		dir := filepath.Join(b.dir, fmt.Sprintf("it%05d", iter))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		paths := shardPaths(dir, "shard", fig3Shards)

		p, err := evidenceUntraced(spec, paths, pool, b.nproc, readIdx)
		if !b.op(err, "evidence pass") {
			return err
		}
		b.jobs = append(b.jobs, p.job)
		b.timed = append(b.timed, p.pass)
		b.runs += fig3Runs
		merges = append(merges, p.merge.Seconds())
		for _, d := range p.reads {
			reads = append(reads, float64(d)/1e6)
		}
		b.checkEvidence(spec, paths, p)

		if b.traced {
			untracedNS += float64(p.exec) * float64(b.nproc)
			rpaths := shardPaths(dir, "replica", fig3Shards)
			runs, rt, err := b.evidenceTraced(spec, rpaths, pool, readIdx)
			if !b.op(err, "traced evidence pass") {
				return err
			}
			tracedNS += float64(rt) * float64(b.nproc)
			tracedRuns = append(tracedRuns, runs...)
			if iter == 0 {
				firstRuns = runs
			}
			b.compareArtefacts(paths, rpaths)
			b.sameAggregate(p.merged, aggregate(plan.Name, runs))
			err = verifyReplica(runs, core.ModeDistribution, pool, b.nproc)
			b.check(err == nil, "%v", err)
			for _, path := range paths {
				artefacts++
				isCanon, size, err := rawIsCanonical(path)
				if b.op(err, "canonical check") && isCanon {
					canonical++
				}
				recordBytes = append(recordBytes, size)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.report["merge_s"] = metric{median(merges), "s"}
	b.report["run_read_p50_ms"] = metric{quantile(reads, 0.5), "ms"}
	b.report["run_read_p99_ms"] = metric{quantile(reads, 0.99), "ms"}
	b.report["run_read_samples"] = metric{float64(len(reads)), "count"}
	if b.traced {
		buildsAfter, _ := pool.Stats()
		b.metrics["core.cold_builds"] = metric{float64(buildsAfter - buildsBefore), "count"}
		b.metrics["dist.raw_is_canonical"] = metric{float64(canonical) / float64(max(artefacts, 1)), "ratio"}
		b.metrics["dist.record_bytes"] = metric{mean(recordBytes), "bytes"}
		n := float64(len(tracedRuns))
		b.runLayerMetrics(firstRuns, tracedRuns, untracedNS/n, tracedNS/n)
	}
	return nil
}

func shardPaths(dir, prefix string, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", prefix, i))
	}
	return paths
}

// evidenceUntraced runs the evidence path through the real entry points:
// the shards one after the other, the merge, then the dossier reads.
func evidenceUntraced(spec *dist.Spec, paths []string, pool *core.MachinePool, workers int, readIdx []int) (*evidencePass, error) {
	ctx := context.Background()
	p := &evidencePass{lines: make(map[int][]byte)}
	t0 := time.Now()
	for i, path := range paths {
		_, skipped, err := dist.ExecuteShardPool(ctx, spec, i, workers, path, pool)
		if err != nil {
			return nil, err
		}
		if skipped {
			return nil, fmt.Errorf("shard %d skipped over a fresh path", i)
		}
	}
	t1 := time.Now()
	merged, shards, err := dist.Merge(paths)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	ds := make([]*dist.Dossier, len(paths))
	for i, path := range paths {
		d, err := dist.OpenDossier(path)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		ds[i] = d
	}
	for _, k := range readIdx {
		d := dossierFor(spec, ds, k)
		start := time.Now()
		line, err := d.RawRun(k)
		if err != nil {
			return nil, err
		}
		p.reads = append(p.reads, time.Since(start))
		p.lines[k] = line
	}
	p.exec, p.merge = t1.Sub(t0), t2.Sub(t1)
	p.job, p.pass = interval{t0, t2}, interval{t0, time.Now()}
	p.merged, p.shards = merged, shards
	return p, nil
}

// dossierFor returns the shard dossier whose window holds run k.
func dossierFor(spec *dist.Spec, ds []*dist.Dossier, k int) *dist.Dossier {
	for i, d := range ds {
		if sh, err := spec.Shard(i); err == nil && k >= sh.Start && k < sh.End {
			return d
		}
	}
	return ds[0]
}

// evidenceTraced replays the evidence path with a span around every call
// into a layer: the replicated runs write the shard artefacts through
// JSONLWriter, then merge, open and the same reads follow. It returns the
// replicated runs and the wall time of the shard executions.
func (b *bench) evidenceTraced(spec *dist.Spec, paths []string, pool *core.MachinePool, readIdx []int) ([]*replicaRun, time.Duration, error) {
	tr := b.tr
	top := tr.begin("evidence", -1, 0)
	defer tr.end(top)
	rp := newReplica(tr, pool, spec.Mode)
	var all []*replicaRun
	start := time.Now()
	for i, path := range paths {
		sh, err := spec.Shard(i)
		if err != nil {
			return nil, 0, err
		}
		s := tr.begin("shard", top, 0)
		w, err := dist.CreateJSONL(path)
		if err != nil {
			return nil, 0, err
		}
		if err := w.WriteManifest(sh.Manifest()); err != nil {
			w.Close()
			return nil, 0, err
		}
		rp.onRun = w.OnRun
		runs, err := rp.campaign(spec.Plan, campaignSeeds(spec.MasterSeed, sh.Start, sh.Runs()), sh.Start, b.nproc, s)
		if err != nil {
			w.Close()
			return nil, 0, err
		}
		c := tr.begin("dist.close", s, 0)
		err = w.WriteSummary(aggregate(spec.Plan.Name, runs))
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		tr.end(c)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, runs...)
	}
	exec := time.Since(start)

	s := tr.begin("dist.merge", top, 0)
	_, _, err := dist.Merge(paths)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	ds := make([]*dist.Dossier, len(paths))
	for i, path := range paths {
		s := tr.begin("dist.open", top, 0)
		d, err := dist.OpenDossier(path)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		defer d.Close()
		ds[i] = d
	}
	for _, k := range readIdx {
		s := tr.begin("dist.raw_run", top, 0)
		_, err := dossierFor(spec, ds, k).RawRun(k)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
	}
	return all, exec, nil
}

// checkEvidence checks one pass's outputs: every run index present
// exactly once, the shard summaries confirming their records, the merge
// agreeing with the shards, and each read returning its own record.
func (b *bench) checkEvidence(spec *dist.Spec, paths []string, p *evidencePass) {
	for _, sf := range p.shards {
		b.check(sf.Complete, "%s: summary does not confirm its %d records", sf.Path, sf.Records)
	}
	b.check(p.merged.Total() == spec.Runs, "merge folded %d runs, want %d", p.merged.Total(), spec.Runs)
	seen := make([]int, spec.Runs)
	counts := make(map[string]int)
	injections := 0
	for _, path := range paths {
		d, err := dist.OpenDossier(path)
		if !b.op(err, "open for check") {
			continue
		}
		b.check(d.Complete() && d.Indexed(), "%s: complete=%v indexed=%v", path, d.Complete(), d.Indexed())
		for _, e := range d.Entries() {
			if e.Index >= 0 && e.Index < spec.Runs {
				seen[e.Index]++
			}
		}
		for o, n := range d.OutcomeCounts() {
			counts[o] += n
		}
		injections += d.InjectionsTotal()
		for k, line := range p.lines {
			e, ok := d.Entry(k)
			if !ok {
				continue
			}
			var rec dist.RunRecord
			err := json.Unmarshal(line, &rec)
			b.check(err == nil && rec.Index == k && rec.Outcome == e.Outcome && rec.TraceHash == fmt.Sprintf("%#x", e.TraceHash),
				"read of run %d returned another record: %s", k, line)
		}
		d.Close()
	}
	missing := 0
	for _, n := range seen {
		if n != 1 {
			missing++
		}
	}
	b.check(missing == 0, "%d run indices not present exactly once", missing)
	ok := p.merged.InjectionsTotal() == injections
	for _, o := range core.AllOutcomes() {
		ok = ok && p.merged.Count(o) == counts[o.String()]
	}
	b.check(ok, "merged summary %v/%d disagrees with the shard records %v/%d",
		distributionOf(p.merged), p.merged.InjectionsTotal(), counts, injections)
}

// compareArtefacts checks that the traced replica wrote, run index by run
// index, the records the untraced path wrote: same outcome, trace hash,
// injection count and detection latency.
func (b *bench) compareArtefacts(paths, rpaths []string) {
	for i := range paths {
		d, err := dist.OpenDossier(paths[i])
		if !b.op(err, "open untraced artefact") {
			continue
		}
		r, err := dist.OpenDossier(rpaths[i])
		if !b.op(err, "open traced artefact") {
			d.Close()
			continue
		}
		b.check(len(d.Entries()) == len(r.Entries()), "%s: %d records untraced, %d traced", paths[i], len(d.Entries()), len(r.Entries()))
		for _, e := range d.Entries() {
			t, ok := r.Entry(e.Index)
			b.check(ok && t.Outcome == e.Outcome && t.TraceHash == e.TraceHash && t.Injections == e.Injections && t.DetectionNS == e.DetectionNS,
				"run %d: untraced %s/%#x/%d, traced %s/%#x/%d", e.Index, e.Outcome, e.TraceHash, e.Injections, t.Outcome, t.TraceHash, t.Injections)
		}
		d.Close()
		r.Close()
	}
}

// rawIsCanonical reports whether the artefact's raw bytes are its
// canonical stream followed by the index footer, and the mean record size.
func rawIsCanonical(path string) (bool, float64, error) {
	d, err := dist.OpenDossier(path)
	if err != nil {
		return false, 0, err
	}
	defer d.Close()
	var canon bytes.Buffer
	if err := dist.WriteCanonical(&canon, d); err != nil {
		return false, 0, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, 0, err
	}
	var size float64
	for _, e := range d.Entries() {
		size += float64(e.Length)
	}
	size /= float64(max(len(d.Entries()), 1))
	return len(raw) > canon.Len() && bytes.HasPrefix(raw, canon.Bytes()), size, nil
}
