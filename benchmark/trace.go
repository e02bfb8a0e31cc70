package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark owns its
// spans (the program under test records none for it): they are kept in
// memory and written with the result file when the run ends. Spans of one
// request share Request; Parent is the index of the span that caused this
// one, -1 for a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) duration() time.Duration {
	return time.Duration(s.EndNS - s.StartNS)
}

// tracer collects spans; start and end are safe to call from the client
// goroutines of a parallel stage.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent, request int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: t.now(), EndNS: -1, Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = t.now()
}

// selfTime is a span's duration minus the part of that interval its child
// spans cover. Children may overlap one another (clients decode in
// parallel), so their union is what is subtracted.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
	covered, edge := int64(0), p.StartNS
	for _, k := range kids {
		if k.hi <= edge {
			continue
		}
		covered += k.hi - max(k.lo, edge)
		edge = k.hi
	}
	return time.Duration(p.EndNS - p.StartNS - covered)
}

// totalOf sums the durations of every span with exactly this name.
func totalOf(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.duration()
		}
	}
	return d
}

// rootSelfTime sums the self time of every root span: what a fit or a
// request spends outside the stages the benchmark names.
func rootSelfTime(spans []span) time.Duration {
	var d time.Duration
	for i, s := range spans {
		if s.Parent == -1 {
			d += selfTime(spans, i)
		}
	}
	return d
}

// maxOverMean is the slowest span named prefix+<client> over the mean of
// them all: how much a straggler silo stretches a parallel stage.
func maxOverMean(spans []span, prefix string) float64 {
	var sum, top time.Duration
	n := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			sum += s.duration()
			top = max(top, s.duration())
			n++
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(n) / float64(sum)
}
