package main

import (
	"testing"
	"time"
)

func TestSelfTimeUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children (two workers): union is [10,60).
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		// A disjoint child, partly outside the parent: clipped to [90,100).
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild nested inside a: counts against a, not the root.
		{ID: 5, Parent: 2, Name: "a.x", Start: 20, End: 25},
	}
	self := SelfTimes(spans)
	want := map[uint64]time.Duration{1: 40, 2: 35, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["root"]; got != 40e-9 {
		t.Errorf("selfByName root = %g s, want 4e-8", got)
	}
}

func TestMergeKeepsIDsUnique(t *testing.T) {
	first := []Span{{ID: 1, Trace: 1, Name: "root"}, {ID: 2, Parent: 1, Trace: 1, Name: "kid"}}
	second := []Span{{ID: 1, Trace: 1, Name: "root"}, {ID: 2, Parent: 1, Trace: 1, Name: "kid"}}
	all := merge(merge(nil, first, "a"), second, "b")
	want := []Span{
		{ID: 1, Trace: 1, Name: "root", Workload: "a"},
		{ID: 2, Parent: 1, Trace: 1, Name: "kid", Workload: "a"},
		{ID: 3, Trace: 3, Name: "root", Workload: "b"},
		{ID: 4, Parent: 3, Trace: 3, Name: "kid", Workload: "b"},
	}
	for i := range want {
		if all[i].ID != want[i].ID || all[i].Parent != want[i].Parent || all[i].Trace != want[i].Trace || all[i].Workload != want[i].Workload {
			t.Errorf("span %d = %+v, want %+v", i, all[i], want[i])
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", Active{})
	tr.Start("y", sp).End(map[string]float64{"k": 1})
	sp.End(nil)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer recorded %v", got)
	}
}

func TestTracerParentsAndTraces(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", Active{})
	kid := tr.Start("kid", root)
	kid.End(nil)
	root.End(nil)
	other := tr.Start("other", Active{})
	other.End(nil)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["kid"].Parent != byName["root"].ID || byName["kid"].Trace != byName["root"].Trace {
		t.Errorf("kid not linked to root: %+v %+v", byName["kid"], byName["root"])
	}
	if byName["other"].Trace == byName["root"].Trace {
		t.Errorf("separate roots share a trace id")
	}
}
