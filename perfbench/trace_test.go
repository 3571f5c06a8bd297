package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	const msNs = int64(1e6)
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 10 * msNs},
		// Two overlapping children cover [1,5] ms; the third sticks out
		// past the parent's end and only [8,10] counts.
		{Name: "child", ID: 2, Parent: 1, Start: 1 * msNs, End: 4 * msNs},
		{Name: "child", ID: 3, Parent: 1, Start: 2 * msNs, End: 5 * msNs},
		{Name: "child", ID: 4, Parent: 1, Start: 8 * msNs, End: 12 * msNs},
		{Name: "leaf", ID: 5, Parent: 2, Start: 1 * msNs, End: 2 * msNs},
	}
	self := selfTimes(spans)
	if got := self["root"]; len(got) != 1 || math.Abs(got[0]-4) > 1e-9 {
		t.Errorf("root self = %v, want [4]", got)
	}
	if got := self["child"]; len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Errorf("child self = %v, want [2 3 4]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0, 1)
	sp.end()
	if sp.id() != 0 {
		t.Errorf("nil tracer span id = %d", sp.id())
	}
	tr = newTracer()
	parent := tr.begin("p", 0, 7)
	child := tr.begin("c", parent.id(), 7)
	child.end()
	parent.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "p" || got[1].Parent != got[0].ID || got[1].Req != 7 {
		t.Errorf("spans = %+v", got)
	}
}
