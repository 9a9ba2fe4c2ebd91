package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out
// when the benchmark ends. A nil *tracer records nothing, so the untraced
// run pays no more than a nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	runs  int
}

// span is one timed call into a layer. Spans of one run share Run; Parent
// is the index of the enclosing span (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	self   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle; end closes it.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: run, Start: now, End: -1})
	return len(t.spans) - 1
}

// newRun returns a fresh run identifier for the spans of one run.
func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels an open span once the call has shown which path it took
// (a pool Get that restored versus one that built cold).
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap (parallel
// workers inside one shard span), so the covered part is the union of the
// child intervals.
func (t *tracer) finish() {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			s.End = s.Start
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, k := range kids {
			ks, ke := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		s.self = s.End - s.Start - covered
	}
}

// selfStats sums self time and counts spans by name.
func (t *tracer) selfStats() map[string]*spanStat {
	out := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.n++
		st.selfNS += s.self
	}
	return out
}

// runPhaseSelf returns, per traced run, the summed self time of the
// run's phase spans (children of the run span).
func (t *tracer) runPhaseSelf() []float64 {
	perRun := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent < 0 || t.spans[s.Parent].Name != "run" {
			continue
		}
		perRun[s.Run] += s.self
	}
	out := make([]float64, 0, len(perRun))
	for _, v := range perRun {
		out = append(out, float64(v))
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

type spanStat struct {
	n      int
	selfNS int64
}

// meanNS is the mean self time of the spans, 0 when none ran.
func (s *spanStat) meanNS() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return float64(s.selfNS) / float64(s.n)
}
