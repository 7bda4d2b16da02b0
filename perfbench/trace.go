package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// requestHeader carries "<request id>-<parent span id>" from a traced
// client to the wrapping handler, so a server span joins its client span.
const requestHeader = "X-Perfbench-Request"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. Parent 0 means a root span; Req 0 means the span
// belongs to no request (set-up, or a worker reached through the
// coordinator, which does not forward request ids).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // begin records nothing while false
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// open is a started span; close it with end.
type open struct {
	id, parent, req uint64
	name            string
	start           int64
}

// begin starts a span. On a nil or paused tracer it returns the zero
// open, which end ignores.
func (t *tracer) begin(name string, parent, req uint64) open {
	if t == nil || !t.on.Load() {
		return open{}
	}
	return open{id: t.ids.Add(1), parent: parent, req: req, name: name, start: int64(time.Since(t.epoch))}
}

// end records the span begun as o.
func (t *tracer) end(o open) {
	if o.id == 0 {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newRequest allocates a request id.
func (t *tracer) newRequest() uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.ids.Add(1)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// encodeHeader and decodeHeader move (request, parent span) across HTTP.
func encodeHeader(req, parent uint64) string {
	return strconv.FormatUint(req, 10) + "-" + strconv.FormatUint(parent, 10)
}

func decodeHeader(v string) (req, parent uint64) {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseUint(a, 10, 64)
	parent, _ = strconv.ParseUint(b, 10, 64)
	return req, parent
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus the time child spans cover
}

// selfTimes folds spans into per-name totals. A span's self time is its
// duration minus the part of its interval that the union of its
// children's intervals covers; children running in parallel are not
// double-subtracted, and the part of a child outside its parent is
// ignored.
func selfTimes(spans []span) []layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s.Start, s.End, children[s.ID])
		r := rows[s.Name]
		if r == nil {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += time.Duration(dur)
		r.Self += time.Duration(self)
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// formatSelfTable renders the self-time table.
func formatSelfTable(rows []layerTime) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		per := 0.0
		if r.Count > 0 {
			per = float64(r.Self.Microseconds()) / float64(r.Count)
		}
		fmt.Fprintf(&b, "%-34s %9d %12.3f %12.3f %10.2f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, per)
	}
	return b.String()
}
