package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		// Overlapping children count once; the part of a child outside
		// its parent counts not at all.
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "handler", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "handler", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "enum", Start: 12, End: 18},
		{ID: 6, Name: "client", Start: 200, End: 210},
	}
	got := map[string]layerTime{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	want := map[string]layerTime{
		"client":  {Name: "client", Count: 2, Total: 110, Self: 50 + 10},
		"handler": {Name: "handler", Count: 3, Total: 20 + 30 + 30, Self: 14 + 30 + 30},
		"enum":    {Name: "enum", Count: 1, Total: 6, Self: 6},
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	kids := []span{{Start: 5, End: 10}, {Start: 6, End: 8}, {Start: 20, End: 25}, {Start: 40, End: 60}}
	if got := covered(0, 50, kids); got != 5+5+10 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := covered(0, 50, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestTracerPausedAndNil(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", 0, none.newRequest()))
	if none.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	tr.on.Store(false)
	tr.end(tr.begin("paused", 0, tr.newRequest()))
	tr.on.Store(true)
	o := tr.begin("kept", 0, tr.newRequest())
	time.Sleep(time.Millisecond)
	tr.end(o)
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "kept" || spans[0].Req == 0 || spans[0].End <= spans[0].Start {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	req, parent := decodeHeader(encodeHeader(7, 42))
	if req != 7 || parent != 42 {
		t.Fatalf("decoded (%d, %d)", req, parent)
	}
	if req, parent := decodeHeader(""); req != 0 || parent != 0 {
		t.Fatalf("empty header decoded (%d, %d)", req, parent)
	}
}
