package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"github.com/dessertlab/certify/internal/core"
	"github.com/dessertlab/certify/internal/dist"
	"github.com/dessertlab/certify/internal/serve"
)

// serve-mixed: an in-process campaign server (serve.New, startup golden
// check on) behind httptest, driven as a closed loop by nproc clients from
// two tenants, one execution slot per two CPUs. Each client repeats the
// client session that examples/servecampaign records: submit a fresh
// campaign and follow it to done (the write), fetch its artefact, resubmit
// the identical spec so that the verified cache answers, and fetch the
// cached artefact, which must be byte-identical to the fresh one. It then
// reads run records through GET /jobs/{id}/runs/{k}, two per job as
// TestEventsAndRunRecords does. Campaigns are full-mode, alternate E1-hvc
// and E3-fig3 with new seeds, and have the paper's 40 runs, the size the
// example, the serve golden test and BenchmarkServerCachedRequest submit.
// While one client's job executes, the other clients read and hit the
// cache, so a gain on one traffic class that costs another shows here.
const (
	serveRuns  = 40 // runs per fresh job
	serveReads = 2  // run reads per job
	// serveRSSJobs is the number of fresh jobs max_rss_mb covers. The
	// server keeps every job it ran, so its resident set grows with the
	// jobs done; a peak over a fixed number of jobs keeps a faster server,
	// which completes more of them in the measured time, from reading as
	// one that uses more memory.
	serveRSSJobs = 32
)

var servePlans = []string{"E1-hvc", "E3-fig3"}

// serveJob is a completed fresh job.
type serveJob struct {
	id, key    string
	req        serve.SubmitRequest
	dist       map[string]int
	injections int
}

// serveLoad is the shared state of one closed-loop phase.
type serveLoad struct {
	b      *bench
	client *serve.Client
	tr     *tracer

	mu      sync.Mutex
	results map[string]*serveJob // cache key → the fresh job that computed it

	jobs                    []interval // fresh jobs, submit to done
	hitLat, readLat, artLat []float64
	freshRuns, ops          int
	rssKiB                  float64 // peak resident set when serveRSSJobs jobs were done
}

// serveSystem is one set-up server with its warm pool.
type serveSystem struct {
	dir  string
	pool *core.MachinePool
	srv  *serve.Server
	hs   *httptest.Server
	http *http.Client
}

func (s *serveSystem) close() {
	s.http.CloseIdleConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
}

func runServe(b *bench) error {
	var profiles []core.MachineOptions
	for _, name := range servePlans {
		plan, err := core.PlanByName(name)
		if err != nil {
			return err
		}
		profiles = append(profiles, machineOptions(plan, 0, core.ModeFull))
	}
	var builds []float64
	n := 0
	newServer := func(pool *core.MachinePool) (*serveSystem, error) {
		n++
		dir := filepath.Join(b.dir, fmt.Sprintf("serve-%d", n))
		srv, err := serve.New(serve.Config{
			DataDir: dir,
			Slots:   max(1, b.nproc/2),
			Pool:    pool,
		})
		if err != nil {
			return nil, err
		}
		sys := &serveSystem{dir: dir, pool: pool, srv: srv, hs: httptest.NewServer(srv.Handler())}
		sys.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc}}
		return sys, nil
	}
	sys, err := setup(b, func() (*serveSystem, error) {
		pool := core.NewMachinePool()
		bt, err := warmPool(pool, profiles, b.nproc)
		if err != nil {
			return nil, err
		}
		builds = append(builds, bt...)
		sys, err := newServer(pool)
		if err != nil {
			return nil, err
		}
		c := &serve.Client{Base: sys.hs.URL, HTTP: sys.http}
		if _, err := c.Health(context.Background()); err != nil {
			sys.close()
			return nil, err
		}
		return sys, nil
	}, func(s *serveSystem) { s.close() })
	if err != nil {
		return err
	}
	b.metrics["core.build_ms"] = metric{mean(builds), "ms"}

	phase := b.seconds
	if b.traced {
		phase = b.seconds / 2
	}
	untraced, wall, err := b.serveLoad(sys, nil, phase)
	sys.close()
	if err != nil {
		return err
	}
	b.jobs, b.timed, b.runs = untraced.jobs, []interval{wall}, untraced.freshRuns
	if untraced.rssKiB > 0 {
		b.metrics["max_rss_mb"] = metric{untraced.rssKiB / 1024, "MB"}
	} else {
		b.report["rss_jobs_short"] = metric{float64(len(untraced.jobs)), "count"}
	}
	b.report["run_read_p50_ms"] = metric{quantile(untraced.readLat, 0.5), "ms"}
	b.report["run_read_p99_ms"] = metric{quantile(untraced.readLat, 0.99), "ms"}
	b.report["run_read_samples"] = metric{float64(len(untraced.readLat)), "count"}
	b.report["cache_hit_p50_ms"] = metric{quantile(untraced.hitLat, 0.5), "ms"}
	b.report["cache_hit_p90_ms"] = metric{quantile(untraced.hitLat, 0.9), "ms"}
	b.report["cache_hit_samples"] = metric{float64(len(untraced.hitLat)), "count"}
	b.report["artefact_p50_ms"] = metric{quantile(untraced.artLat, 0.5), "ms"}
	b.report["artefact_samples"] = metric{float64(len(untraced.artLat)), "count"}
	if !b.traced {
		return nil
	}

	// The traced phase replays the same client streams against a fresh
	// server on the same warm pool, with spans around the client calls.
	tsys, err := newServer(sys.pool)
	if err != nil {
		return err
	}
	defer tsys.close()
	buildsBefore, _ := tsys.pool.Stats()
	traced, twall, err := b.serveLoad(tsys, b.tr, phase)
	if err != nil {
		return err
	}
	buildsAfter, _ := tsys.pool.Stats()
	b.metrics["core.cold_builds"] = metric{float64(buildsAfter - buildsBefore), "count"}
	h := tsys.srv.Health()
	b.metrics["serve.cache_hits"] = metric{float64(h.CacheHits), "count"}
	b.metrics["serve.cache_misses"] = metric{float64(h.CacheMisses), "count"}
	b.metrics["serve.queue_wait_ms"] = metric{h.QueueWaitMeanMS, "ms"}
	b.tr.finish()
	st := b.tr.selfStats()
	b.metrics["serve.exec_s"] = metric{(st["serve.wait"].meanNS()/1e6 - h.QueueWaitMeanMS) / 1e3, "s"}
	var spanned float64
	for _, s := range b.tr.spans {
		spanned += float64(s.End - s.Start)
	}
	b.metrics["trace.coverage_pct"] = metric{100 * spanned / (float64(b.nproc) * float64(twall.to.Sub(twall.from))), "%"}
	untracedRate := float64(untraced.ops) / wall.to.Sub(wall.from).Seconds()
	tracedRate := float64(traced.ops) / twall.to.Sub(twall.from).Seconds()
	b.metrics["trace.overhead_pct"] = metric{100 * (untracedRate/tracedRate - 1), "%"}

	// Keys both phases executed must have reached the same results.
	for key, u := range untraced.results {
		if t, ok := traced.results[key]; ok {
			b.check(maps.Equal(u.dist, t.dist) && u.injections == t.injections,
				"%s: untraced %v/%d injections, traced %v/%d", key, u.dist, u.injections, t.dist, t.injections)
		}
	}
	canon, artefacts := 0, 0
	var sizes []float64
	paths, _ := filepath.Glob(filepath.Join(tsys.dir, "cache", "*", "runs.jsonl"))
	for _, p := range paths {
		ok, size, err := rawIsCanonical(p)
		if !b.op(err, "canonical check") {
			continue
		}
		artefacts++
		if ok {
			canon++
		}
		sizes = append(sizes, size)
	}
	b.metrics["dist.raw_is_canonical"] = metric{float64(canon) / float64(max(artefacts, 1)), "ratio"}
	b.metrics["dist.record_bytes"] = metric{mean(sizes), "bytes"}
	return nil
}

// serveLoad runs the closed loop for d against sys and checks its outputs.
// It returns the load and the stretch of wall time it ran.
func (b *bench) serveLoad(sys *serveSystem, tr *tracer, d time.Duration) (*serveLoad, interval, error) {
	ld := &serveLoad{
		b: b, client: &serve.Client{Base: sys.hs.URL, HTTP: sys.http}, tr: tr,
		results: make(map[string]*serveJob),
	}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.runClient(ctx, c, deadline)
		}()
	}
	wg.Wait()
	wall := interval{start, time.Now()}

	// Untimed: the engine fingerprint.
	h, err := ld.client.Health(ctx)
	if b.op(err, "healthz") {
		b.check(h.GoldenTraceHash == fmt.Sprintf("%#x", uint64(goldenTraceHash)),
			"/healthz golden trace hash %s, want %#x", h.GoldenTraceHash, uint64(goldenTraceHash))
	}
	b.check(len(ld.results) > 0, "no fresh job completed in %v", d)
	return ld, wall, nil
}

// runClient is one closed-loop client: it runs sessions, with inputs drawn
// from its own seeded stream, until the deadline. A failed step ends the
// session.
func (ld *serveLoad) runClient(ctx context.Context, c int, deadline time.Time) {
	rng := rand.New(rand.NewPCG(ld.b.seed, uint64(c+1)))
	tenant := fmt.Sprintf("tenant-%c", 'a'+c%2)
	for n := 0; time.Now().Before(deadline); n++ {
		plan := servePlans[(c+n)%len(servePlans)]
		ld.session(ctx, c, rng, tenant, plan)
	}
}

// session is one client session; each step counts as one operation.
func (ld *serveLoad) session(ctx context.Context, c int, rng *rand.Rand, tenant, plan string) {
	b := ld.b
	step := func(err error, what string) bool {
		ld.mu.Lock()
		ld.ops++
		ld.mu.Unlock()
		return b.op(err, what)
	}
	j, err := ld.fresh(ctx, c, tenant, plan, rng.Uint64())
	if !step(err, "fresh job") {
		return
	}
	fresh, err := ld.artefact(ctx, c, j.id)
	if !step(err, "artefact of "+j.id) {
		return
	}
	cachedID, err := ld.repeat(ctx, c, j)
	if !step(err, "repeat of "+j.key) {
		return
	}
	cached, err := ld.artefact(ctx, c, cachedID)
	if !step(err, "artefact of "+cachedID) {
		return
	}
	if !b.check(cached.whole == fresh.whole, "cached artefact %s differs from the fresh one %s", cachedID, j.id) {
		return
	}
	for i := 0; i < serveReads; i++ {
		k := rng.IntN(serveRuns)
		if !step(ld.readRun(ctx, c, j, k, fresh), "read of run") {
			return
		}
	}
}

// artefactSum digests a fetched artefact: the client keeps digests, not
// bytes, so its own memory stays out of max_rss_mb.
type artefactSum struct {
	whole [sha256.Size]byte
	lines map[int]uint64 // run index → FNV-1a of the run's record line
}

// fresh submits a new campaign and waits for it: a write.
func (ld *serveLoad) fresh(ctx context.Context, c int, tenant, plan string, seed uint64) (*serveJob, error) {
	req := serve.SubmitRequest{Tenant: tenant, Plan: plan, Runs: serveRuns, Seed: serve.Seed(seed), Mode: "full"}
	start := time.Now()
	s := ld.tr.begin("serve.submit", -1, c)
	view, err := ld.client.Submit(ctx, &req)
	ld.tr.end(s)
	if err != nil {
		return nil, err
	}
	if view.Cached {
		return nil, fmt.Errorf("fresh submission %s answered from the cache", view.Key)
	}
	s = ld.tr.begin("serve.wait", -1, c)
	final, err := ld.client.Watch(ctx, view.ID, nil)
	ld.tr.end(s)
	if err != nil {
		return nil, err
	}
	done := time.Now()
	sum := 0
	for _, n := range final.Distribution {
		sum += n
	}
	if final.State != serve.StateCompleted || final.Cached || sum != serveRuns {
		return nil, fmt.Errorf("job %s ended %s (cached=%v) with %d of %d runs classified: %s",
			final.ID, final.State, final.Cached, sum, serveRuns, final.Error)
	}
	j := &serveJob{id: final.ID, key: final.Key, req: req, dist: final.Distribution, injections: final.InjectionsTotal}
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.results[j.key] = j
	ld.jobs = append(ld.jobs, interval{start, done})
	ld.freshRuns += serveRuns
	if len(ld.jobs) == serveRSSJobs {
		kb, err := peakRSSKiB()
		if err != nil {
			return nil, err
		}
		ld.rssKiB = kb
	}
	return j, nil
}

// repeat resubmits a completed campaign; the verified cache must answer
// with the fresh job's results. It returns the id of the cached job.
func (ld *serveLoad) repeat(ctx context.Context, c int, j *serveJob) (string, error) {
	start := time.Now()
	s := ld.tr.begin("serve.cache_hit", -1, c)
	view, err := ld.client.Submit(ctx, &j.req)
	ld.tr.end(s)
	if err != nil {
		return "", err
	}
	lat := time.Since(start)
	if !view.Cached || view.State != serve.StateCompleted || !maps.Equal(view.Distribution, j.dist) || view.InjectionsTotal != j.injections {
		return "", fmt.Errorf("cached=%v state=%s distribution %v/%d, want %v/%d",
			view.Cached, view.State, view.Distribution, view.InjectionsTotal, j.dist, j.injections)
	}
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.hitLat = append(ld.hitLat, float64(lat)/1e6)
	return view.ID, nil
}

// artefact fetches a job's artefact, checks its shape and digests it.
func (ld *serveLoad) artefact(ctx context.Context, c int, id string) (artefactSum, error) {
	var buf bytes.Buffer
	start := time.Now()
	s := ld.tr.begin("serve.artefact", -1, c)
	err := ld.client.Artefact(ctx, &buf, id)
	ld.tr.end(s)
	if err != nil {
		return artefactSum{}, err
	}
	lat := time.Since(start)
	lines, err := checkArtefact(buf.Bytes(), serveRuns)
	if err != nil {
		return artefactSum{}, err
	}
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.artLat = append(ld.artLat, float64(lat)/1e6)
	return artefactSum{whole: sha256.Sum256(buf.Bytes()), lines: lines}, nil
}

// readRun reads run k of job j and checks that it is its own run and
// byte-equal to that run's record in the job's artefact.
func (ld *serveLoad) readRun(ctx context.Context, c int, j *serveJob, k int, art artefactSum) error {
	start := time.Now()
	s := ld.tr.begin("serve.run_read", -1, c)
	line, err := ld.client.RawRun(ctx, j.id, k)
	ld.tr.end(s)
	if err != nil {
		return err
	}
	lat := time.Since(start)
	line = bytes.TrimRight(line, "\n")
	var rec dist.RunRecord
	if err := json.Unmarshal(line, &rec); err != nil || rec.Type != "run" || rec.Index != k {
		return fmt.Errorf("read of %s run %d returned another record (%v): %.80s", j.id, k, err, line)
	}
	if art.lines[k] != lineHash(line) {
		return fmt.Errorf("read of %s run %d differs from the artefact's record", j.id, k)
	}
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.readLat = append(ld.readLat, float64(lat)/1e6)
	return nil
}

// checkArtefact checks a canonical artefact: the manifest, then every run
// index of [0, runs) exactly once and in order, then a summary that counts
// them. It returns the digest of each run's record line.
func checkArtefact(data []byte, runs int) (map[int]uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	lines := make(map[int]uint64)
	line := 0
	var last struct {
		Type  string `json:"type"`
		Index int    `json:"index"`
		Runs  int    `json:"runs"`
	}
	for sc.Scan() {
		last.Type, last.Index, last.Runs = "", 0, 0
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch {
		case line == 0 && last.Type != "manifest":
			return nil, fmt.Errorf("first line is %q, not the manifest", last.Type)
		case line > 0 && line <= runs && (last.Type != "run" || last.Index != line-1):
			return nil, fmt.Errorf("line %d holds %s %d, want run %d", line, last.Type, last.Index, line-1)
		}
		if last.Type == "run" {
			lines[last.Index] = lineHash(sc.Bytes())
		}
		line++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line != runs+2 || last.Type != "summary" || last.Runs != runs {
		return nil, fmt.Errorf("%d lines ending in %q for %d runs", line, last.Type, runs)
	}
	return lines, nil
}

// lineHash is the FNV-1a digest of a record line.
func lineHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
