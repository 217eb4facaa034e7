package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans in memory around the benchmark's calls into each
// layer's public functions. A nil *Tracer records nothing and costs one
// nil check per span, so untraced runs go through the same code.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// Span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span, and every span of one root
// shares the root's Trace id. Workload is set when the spans of several
// workloads are merged into one file.
type Span struct {
	ID       uint64             `json:"id"`
	Parent   uint64             `json:"parent"`
	Trace    uint64             `json:"trace"`
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Workload string             `json:"workload,omitempty"`
}

// merge appends one workload's spans to all, shifting their ids past every
// id already in all so that ids stay unique across tracers.
func merge(all, spans []Span, workload string) []Span {
	var base uint64
	for _, s := range all {
		base = max(base, s.ID)
	}
	for _, s := range spans {
		s.ID += base
		s.Trace += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Workload = workload
		all = append(all, s)
	}
	return all
}

// NewTracer returns an empty recorder whose clock starts now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Active is an open span. The zero Active is both "no parent" for Start and
// the inert handle a nil Tracer hands out.
type Active struct {
	t      *Tracer
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  time.Time
}

// Start opens a span under parent (the zero Active opens a new trace).
func (t *Tracer) Start(name string, parent Active) Active {
	return t.StartAt(name, parent, time.Now())
}

// StartAt opens a span that began at start, for intervals observed after
// the fact (the tuner's rounds are seen only when they end).
func (t *Tracer) StartAt(name string, parent Active, start time.Time) Active {
	if t == nil {
		return Active{}
	}
	id := t.nextID.Add(1)
	trace := parent.trace
	if parent.id == 0 {
		trace = id
	}
	return Active{t: t, id: id, parent: parent.id, trace: trace, name: name, start: start}
}

// End closes the span with optional numeric attributes (key, value pairs
// given as a map; nil for none).
func (a Active) End(attrs map[string]float64) {
	if a.t == nil {
		return
	}
	end := time.Now()
	s := Span{
		ID: a.id, Parent: a.parent, Trace: a.trace, Name: a.name,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(end.Sub(a.t.epoch)),
		Attrs: attrs,
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans to path as one JSON array.
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SelfTimes returns each span's self time: its duration minus the union of
// its children's intervals, clipped to its own. Children of one parent may
// overlap (two workers under one root), so summing their durations would
// subtract the overlap twice; the union counts it once.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}
