package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cqrep/internal/baseline"
	"cqrep/internal/bench"
	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/decomp"
	"cqrep/internal/fractional"
	"cqrep/internal/httpserve"
	"cqrep/internal/join"
	"cqrep/internal/primitive"
	"cqrep/internal/relation"
)

// Replay sizes: the in-process and single-client replays walk a prefix of
// the workload's own stream until it holds replayTuples answers, at least
// replayMin and at most replayMax requests.
const (
	replayTuples = 100000
	replayMin    = 200
	replayMax    = 2000
	// emptyRequests is the sample size of the fixed per-request cost.
	emptyRequests = 200
	// coordSample is how many cold bindings each side of the coordinator
	// probe requests.
	coordSample = 200
	// maintainBatches is the churn probe's fixed batch count.
	maintainBatches = 20
)

// probe is the traced run's state.
type probe struct {
	cfg    config
	r      *report
	fx     *fixture
	st     *stack
	tr     *tracer
	want   []int32            // expected count per stream position
	set    []relation.Tuple   // the replay prefix
	answer [][]relation.Tuple // in-process answers of the replay prefix
	seen   map[string]bool    // bindings any probe has requested
	counts map[string]float64 // exact counts, checked across runs of one seed
	// applied is the churn script position the timed phases reached.
	applied int
}

// runTraced is the traced run: one set-up, the gate, the per-layer probes,
// and the timed phase twice, once untraced and once traced, whose
// difference is the tracing overhead. cf is non-nil for churn.
func runTraced(cfg config, r *report, fx *fixture, cf *churnFixture) error {
	tr := newTracer()
	st, err := setupStack(fx, filepath.Join(cfg.tmp, "setup"), tr)
	if err != nil {
		return err
	}
	defer st.close()
	want, err := gateServed(fx, st, newClient(st.url, nil))
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	p := &probe{cfg: cfg, r: r, fx: fx, st: st, tr: tr, want: want, seen: map[string]bool{}, counts: map[string]float64{}}
	p.pickReplay()
	steps := []func() error{p.compileLayers, p.snapshotLayers, p.inProcess, p.encode, p.fullStack}
	if st.co != nil {
		steps = append(steps, p.coordinator)
	}
	var lv *live
	if cf != nil {
		var err error
		if lv, err = setupChurn(cf, filepath.Join(cfg.tmp, "churn"), tr); err != nil {
			return err
		}
		defer lv.m.Close()
		steps = append(steps, func() error { return p.maintain(cf) })
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if err := p.timedPhases(lv, cf); err != nil {
		return err
	}
	if cf != nil {
		r.count(1, 0)
		if err := gateChurnFinal(lv, cf, cfg.seed, p.applied); err != nil {
			r.count(0, 1)
			r.fail("final churn gate: %v", err)
		}
	}
	return p.finish()
}

// exact records a count that must repeat across runs of one seed.
func (p *probe) exact(name string, v float64) { p.counts[name] = v }

// pickReplay chooses the replay prefix and enumerates its answers.
func (p *probe) pickReplay() {
	total := 0
	for i, vb := range p.fx.stream {
		if i >= replayMax || (i >= replayMin && total >= replayTuples) {
			break
		}
		p.set = append(p.set, vb)
		total += int(p.want[i])
		p.seen[string(vb.AppendEncode(nil))] = true
	}
	p.answer = make([][]relation.Tuple, len(p.set))
	for i, vb := range p.set {
		p.answer[i] = core.Drain(p.st.rep.Query(vb))
	}
	p.r.notef("replay prefix: %d requests, %d answers", len(p.set), total)
}

// allocs runs f and returns its wall time and heap allocation count.
func allocs(f func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	wall := time.Since(start)
	runtime.ReadMemStats(&b)
	return wall, b.Mallocs - a.Mallocs
}

// timeIt runs f n times under a span and returns the median seconds.
func (p *probe) timeIt(name string, n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		o := p.tr.begin(name, 0, 0)
		start := time.Now()
		err := f()
		xs = append(xs, time.Since(start).Seconds())
		p.tr.end(o)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(xs), nil
}

// compileLayers times the build functions the compile goes through, each
// on a freshly generated database so no index is reused.
func (p *probe) compileLayers() error {
	var nv *cq.NormalizedView
	var inst *join.Instance
	var instS []float64
	for k := 0; k < 3; k++ {
		var err error
		if nv, err = cq.Normalize(p.fx.view.ExtendToFull(), p.fx.regen()); err != nil {
			return err
		}
		s, err := p.timeIt("join.NewInstance", 1, func() (err error) { inst, err = join.NewInstance(nv); return err })
		if err != nil {
			return err
		}
		instS = append(instS, s)
	}
	p.r.add("join.instance_s", median(instS), "s")

	h := nv.Hypergraph()
	sizes := make([]int, len(inst.Atoms))
	dbSize := 0
	for i, a := range inst.Atoms {
		sizes[i] = a.Rel.Len()
		dbSize += sizes[i]
	}
	budget := p.fx.budget
	if budget == 0 {
		budget = float64(dbSize)
	}
	var pt fractional.TradeoffPoint
	s, err := p.timeIt("fractional.MinDelayCover", 5, func() (err error) {
		pt, err = fractional.MinDelayCover(h, nv.Free, sizes, math.Log(budget))
		return err
	})
	if err != nil {
		return err
	}
	p.r.add("fractional.cover_s", s, "s")
	var res decomp.SearchResult
	if s, err = p.timeIt("decomp.SearchConnex", 5, func() (err error) { res, err = decomp.SearchConnex(h, nv.Bound); return err }); err != nil {
		return err
	}
	p.r.add("decomp.search_s", s, "s")

	workers := primitive.Workers(runtime.GOMAXPROCS(0))
	var name string
	var build func() error
	switch p.st.rep.Stats().Strategy {
	case core.PrimitiveStrategy:
		name = "primitive.build_s"
		build = func() error {
			ps, err := primitive.Build(inst, sanitizeCover(h, pt.U), math.Max(pt.Tau, 1), workers)
			if err == nil {
				st := ps.Stats()
				p.r.addExtra("primitive.entries", float64(st.DictEntries+st.TreeNodes), "count")
				p.exact("primitive.entries", float64(st.DictEntries+st.TreeNodes))
			}
			return err
		}
	case core.DecompositionStrategy:
		name = "decomp.build_s"
		build = func() error {
			_, err := decomp.Build(nv, res.Dec, make([]float64, len(res.Dec.Bags)), decomp.Workers(runtime.GOMAXPROCS(0)))
			return err
		}
	case core.MaterializedStrategy:
		name = "baseline.materialize_s"
		build = func() error { _, err := baseline.Materialize(inst); return err }
	default:
		return fmt.Errorf("no build probe for strategy %v", p.st.rep.Stats().Strategy)
	}
	if s, err = p.timeIt(strings.TrimSuffix(name, "_s"), 1, build); err != nil {
		return err
	}
	p.r.addExtra(name, s, "s")
	p.r.add("compile.build_s", s, "s")
	stats := p.st.rep.Stats()
	p.r.add("compile.entries", float64(stats.Entries), "count")
	p.exact("compile.entries", float64(stats.Entries))
	p.exact("space_bytes", float64(stats.Bytes))
	return nil
}

// sanitizeCover mirrors the compiler's rescaling of the planner's cover,
// so the probe builds the structure the compile built.
func sanitizeCover(h cq.Hypergraph, u fractional.Cover) fractional.Cover {
	minCov := math.Inf(1)
	for x := 0; x < h.N; x++ {
		cov := 0.0
		for e, edge := range h.Edges {
			for _, v := range edge {
				if v == x {
					cov += u[e]
					break
				}
			}
		}
		minCov = math.Min(minCov, cov)
	}
	switch {
	case minCov < 0.5:
		return fractional.AllOnes(h)
	case minCov >= 1:
		return u
	}
	out := make(fractional.Cover, len(u))
	for i, w := range u {
		out[i] = w / minCov
	}
	return out
}

// snapshotLayers times the snapshot write and the mmap open.
func (p *probe) snapshotLayers() error {
	path := filepath.Join(p.cfg.tmp, "probe.cqs")
	s, err := p.timeIt("core.WriteTo", 3, func() error { return writeSnapshot(p.st.rep, path) })
	if err != nil {
		return err
	}
	p.r.add("core.snapshot_write_s", s, "s")
	s, err = p.timeIt("core.OpenRepresentationMmap", 3, func() error {
		rep, err := core.OpenRepresentationMmap(path)
		if err != nil {
			return err
		}
		return rep.Ensure()
	})
	if err != nil {
		return err
	}
	p.r.add("core.snapshot_open_s", s, "s")
	return nil
}

// inProcess measures L1 (Representation.Query drained) and L1+L2 (the
// same through core.Server.Submit): throughput and allocations untraced,
// then first tuple and delay under spans.
func (p *probe) inProcess() error {
	rep := p.st.rep
	total := 0
	wall, mallocs := allocs(func() {
		for _, vb := range p.set {
			it := rep.Query(vb)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				total++
			}
		}
	})
	p.r.add("core.query_tuples_per_s", float64(total)/wall.Seconds(), "1/s")
	p.r.add("core.query_allocs_per_tuple", float64(mallocs)/float64(max(total, 1)), "count")

	first1 := make([]time.Duration, len(p.set))
	var firsts []float64
	var maxOps uint64
	var maxDelay time.Duration
	for i, vb := range p.set {
		o := p.tr.begin("core.Query", 0, 0)
		ds := bench.Measure(rep.Query(vb))
		p.tr.end(o)
		maxOps = max(maxOps, ds.MaxOps)
		maxDelay = max(maxDelay, ds.MaxDelay)
		if ds.Tuples > 0 {
			first1[i] = ds.FirstOut
			firsts = append(firsts, float64(ds.FirstOut)/1e3)
		}
	}
	p.r.add("core.first_tuple_us", median(firsts), "us")
	p.r.add("core.delay_ops_max", float64(maxOps), "count")
	p.r.add("core.delay_max_us", float64(maxDelay)/1e3, "us")
	p.exact("core.delay_ops_max", float64(maxOps))

	srv, err := core.NewServer(rep, 1, core.WithFlushBatch(128))
	if err != nil {
		return err
	}
	defer srv.Close()
	total = 0
	var streamErr error
	wall, mallocs = allocs(func() {
		for _, vb := range p.set {
			it := srv.Submit(vb)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				total++
			}
			if err := core.IterErr(it); err != nil && streamErr == nil {
				streamErr = err
			}
		}
	})
	if streamErr != nil {
		return fmt.Errorf("core.Server stream: %w", streamErr)
	}
	p.r.add("core.server_tuples_per_s", float64(total)/wall.Seconds(), "1/s")
	p.r.add("core.server_allocs_per_tuple", float64(mallocs)/float64(max(total, 1)), "count")

	var waits []float64
	for i, vb := range p.set {
		o := p.tr.begin("core.Server.Submit", 0, 0)
		start := time.Now()
		it := srv.Submit(vb)
		_, ok := it.Next()
		first := time.Since(start)
		for ok {
			_, ok = it.Next()
		}
		p.tr.end(o)
		if first1[i] > 0 {
			waits = append(waits, float64(first-first1[i])/1e3)
		}
	}
	p.r.add("core.server_wait_us", median(waits), "us")
	return nil
}

// discard is a ResponseWriter that counts and optionally keeps what a
// StreamWriter sends.
type discard struct {
	header  http.Header
	bytes   int
	flushes int
	keep    *bytes.Buffer
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(int)     {}
func (d *discard) Flush()              { d.flushes++ }
func (d *discard) Write(b []byte) (int, error) {
	d.bytes += len(b)
	if d.keep != nil {
		d.keep.Write(b)
	}
	return len(b), nil
}

// writeStream encodes one answer list as a complete response.
func writeStream(w http.ResponseWriter, f httpserve.Format, arity int, ts []relation.Tuple) error {
	sw := httpserve.NewStreamWriter(w, f, arity, 0)
	for _, t := range ts {
		if err := sw.Tuple(t); err != nil {
			return err
		}
	}
	return sw.End()
}

// encode measures L3 alone (StreamWriter into a discarding writer) in both
// formats, then the client decoding the captured bytes of the workload's
// format.
func (p *probe) encode() error {
	arity := len(p.st.rep.FreeNames())
	total := 0
	for _, a := range p.answer {
		total += len(a)
	}
	for _, f := range []httpserve.Format{httpserve.FormatBinary, httpserve.FormatNDJSON} {
		d := &discard{header: http.Header{}}
		var err error
		wall, mallocs := allocs(func() {
			for _, a := range p.answer {
				if err = writeStream(d, f, arity, a); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		p.r.add("httpserve.encode_"+f.String()+"_tuples_per_s", float64(total)/wall.Seconds(), "1/s")
		if f == p.fx.format {
			p.r.add("httpserve.encode_allocs_per_tuple", float64(mallocs)/float64(max(total, 1)), "count")
			p.r.add("httpserve.wire_bytes_per_tuple", float64(d.bytes)/float64(max(total, 1)), "B")
			p.r.add("httpserve.flushes_per_request", float64(d.flushes)/float64(len(p.answer)), "count")
			p.exact("httpserve.wire_bytes_per_tuple", float64(d.bytes)/float64(max(total, 1)))
			p.exact("httpserve.flushes_per_request", float64(d.flushes)/float64(len(p.answer)))
		}
	}

	bodies := make([][]byte, len(p.answer))
	for i, a := range p.answer {
		d := &discard{header: http.Header{}, keep: &bytes.Buffer{}}
		o := p.tr.begin("httpserve.StreamWriter", 0, 0)
		err := writeStream(d, p.fx.format, arity, a)
		p.tr.end(o)
		if err != nil {
			return err
		}
		bodies[i] = d.keep.Bytes()
	}
	ct := &canned{format: p.fx.format}
	cl := &httpserve.Client{Base: "http://canned", HTTP: &http.Client{Transport: ct}}
	names := p.st.rep.BoundNames()
	decoded := 0
	start := time.Now()
	for i, vb := range p.set {
		ct.body = bodies[i]
		decoded += doQuery(cl, p.fx.view.Name, bindings(names, vb), p.fx.format, false, nil).tuples
	}
	p.r.add("httpserve.decode_tuples_per_s", float64(decoded)/time.Since(start).Seconds(), "1/s")
	for i, vb := range p.set {
		ct.body = bodies[i]
		o := doQuery(cl, p.fx.view.Name, bindings(names, vb), p.fx.format, true, nil)
		if err := checkStream(o.got, o.err, p.answer[i]); err != nil {
			return fmt.Errorf("decoding the encoded stream of %v: %w", vb, err)
		}
	}
	return nil
}

// canned answers every request with the body it holds.
type canned struct {
	format httpserve.Format
	body   []byte
}

func (c *canned) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	h := http.Header{}
	h.Set("Content-Type", c.format.MediaType())
	return &http.Response{StatusCode: http.StatusOK, Header: h, Body: io.NopCloser(bytes.NewReader(c.body)), Request: r}, nil
}

// fullStack replays the prefix through the whole stack with one traced
// client: handler and client time, the cache split by outcome, fixed
// per-request cost, and allocations per request (untraced).
func (p *probe) fullStack() error {
	names := p.st.rep.BoundNames()
	handlerSpan := "httpserve.handler"
	if p.st.co != nil {
		handlerSpan = "coord.handler"
	}
	tcl := newClient(p.st.url, p.tr)
	type req struct {
		id  uint64
		hit bool
	}
	var reqs []req
	failed := 0
	send := func(vb relation.Tuple, want int) {
		before, _ := p.st.cacheStats()
		o := doQuery(tcl, p.fx.view.Name, bindings(names, vb), p.fx.format, false, p.tr)
		after, _ := p.st.cacheStats()
		if o.err != nil || o.tuples != want {
			failed++
		}
		reqs = append(reqs, req{o.req, after.Hits > before.Hits})
	}
	c0, _ := p.st.cacheStats()
	for i, vb := range p.set {
		send(vb, int(p.want[i]))
	}
	c1, _ := p.st.cacheStats()
	p.r.add("httpserve.cache_hit_ratio", hitRatio(c0, c1), "ratio")
	p.r.add("httpserve.cache_evictions", float64(c1.Evictions-c0.Evictions), "count")
	// Every binding of the prefix's head asked twice in a row, so both
	// outcomes have samples on every workload.
	for i, vb := range p.set[:min(len(p.set), 50)] {
		send(vb, int(p.want[i]))
		send(vb, int(p.want[i]))
	}
	p.r.count(len(reqs), failed)

	client, handler := map[uint64]int64{}, map[uint64]int64{}
	for _, s := range p.tr.snapshot() {
		switch s.Name {
		case "client.request":
			client[s.Req] = s.End - s.Start
		case handlerSpan:
			handler[s.Req] = s.End - s.Start
		}
	}
	var hs, cs, hits, misses []float64
	for _, q := range reqs {
		h, ok := handler[q.id]
		if !ok {
			return fmt.Errorf("no %s span for request %d", handlerSpan, q.id)
		}
		hs = append(hs, float64(h)/1e3)
		cs = append(cs, float64(client[q.id]-h)/1e3)
		if q.hit {
			hits = append(hits, float64(h)/1e3)
		} else {
			misses = append(misses, float64(h)/1e3)
		}
	}
	p.r.add("httpserve.handler_us", median(hs), "us")
	p.r.add("httpserve.client_us", median(cs), "us")
	p.r.add("httpserve.cache_hit_us", median(hits), "us")
	p.r.add("httpserve.cache_miss_us", median(misses), "us")
	p.r.notef("full-stack replay: %d requests, %d cache hits, %d misses", len(reqs), len(hits), len(misses))

	p.tr.on.Store(false)
	defer p.tr.on.Store(true)
	ucl := newClient(p.st.url, nil)
	n := min(len(p.set), 500)
	failed = 0
	_, mallocs := allocs(func() {
		for i, vb := range p.set[:n] {
			if o := doQuery(ucl, p.fx.view.Name, bindings(names, vb), p.fx.format, false, nil); o.err != nil || o.tuples != int(p.want[i]) {
				failed++
			}
		}
	})
	p.r.add("httpserve.allocs_per_request", float64(mallocs)/float64(n), "count")
	empty := make(relation.Tuple, len(names))
	for i := range empty {
		empty[i] = -1
	}
	var lat []float64
	for i := 0; i < emptyRequests; i++ {
		o := doQuery(ucl, p.fx.view.Name, bindings(names, empty), p.fx.format, false, nil)
		if o.err != nil || o.tuples != 0 {
			failed++
		}
		lat = append(lat, float64(o.lat)/1e3)
	}
	p.r.add("httpserve.empty_request_us", median(lat), "us")
	p.r.count(n+emptyRequests, failed)
	return nil
}

// coordinator measures what the coordinator adds over a direct worker
// request. Both sides take cold bindings (never requested before, so no
// cache on the path holds them) from disjoint halves of the stream's
// unseen bindings; the overhead is the difference of their medians.
func (p *probe) coordinator() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	owner := map[string]*httpserve.Client{}
	for _, w := range p.st.workers {
		views, err := w.Views(ctx)
		if err != nil {
			return err
		}
		for _, v := range views {
			owner[v.Name] = w
		}
	}
	counts := map[string]int{}
	for i, vb := range p.fx.stream {
		counts[string(vb.AppendEncode(nil))] = int(p.want[i])
	}
	var cold []relation.Tuple
	for _, vb := range distinct(p.fx.stream) {
		k := string(vb.AppendEncode(nil))
		if !p.seen[k] && counts[k] > 0 {
			cold = append(cold, vb)
		}
		if len(cold) == 2*coordSample {
			break
		}
	}
	if len(cold) < 2 {
		return fmt.Errorf("too few cold bindings for the coordinator probe")
	}
	names := p.st.rep.BoundNames()
	half := len(cold) / 2
	ccl := newClient(p.st.url, nil)
	var viaCoord, direct []float64
	tuples, failed := 0, 0
	var coordTime time.Duration
	for _, vb := range cold[:half] {
		o := doQuery(ccl, p.fx.view.Name, bindings(names, vb), p.fx.format, false, nil)
		if o.err != nil || o.tuples != counts[string(vb.AppendEncode(nil))] {
			failed++
		}
		viaCoord = append(viaCoord, float64(o.lat)/1e3)
		tuples += o.tuples
		coordTime += o.lat
	}
	for _, vb := range cold[half:] {
		want := counts[string(vb.AppendEncode(nil))]
		found := false
		for s := 0; s < distWorkers && !found; s++ {
			name := fmt.Sprintf("%s@%d", p.fx.view.Name, s)
			w, ok := owner[name]
			if !ok {
				return fmt.Errorf("no worker serves %s", name)
			}
			o := doQuery(w, name, bindings(names, vb), p.fx.format, false, nil)
			if o.err == nil && o.tuples == want {
				direct = append(direct, float64(o.lat)/1e3)
				found = true
			}
		}
		if !found {
			failed++
		}
	}
	p.r.count(len(cold), failed)
	p.r.addExtra("coord.proxy_overhead_us", median(viaCoord)-median(direct), "us")
	p.r.addExtra("coord.tuples_per_s", float64(tuples)/coordTime.Seconds(), "1/s")
	p.r.notef("coordinator probe: %d cold bindings via the coordinator, %d direct to the owning worker", len(viaCoord), len(direct))
	return nil
}

// timedPhases runs the workload's timed phase twice for half the run
// each: untraced (runtime figures) and traced (spans); the latency
// difference is the tracing overhead.
func (p *probe) timedPhases(lv *live, cf *churnFixture) error {
	half := max(p.cfg.duration()/2, time.Second)
	names := p.st.rep.BoundNames()
	var ms0, ms1 runtime.MemStats
	var plain, spanned loopStats
	phase := func(tr *tracer, pos int) (loopStats, int) {
		if cf != nil {
			rs, ws := churnLoop(lv.m, cf, pos, half, tr)
			p.r.count(rs.requests+ws.batches, rs.failed+ws.failed)
			if tr == nil {
				p.r.addExtra("updates_per_s", float64(ws.batches*churnBatch)/ws.wall.Seconds(), "1/s")
			}
			return rs, ws.end
		}
		ls := httpLoop(newClient(p.st.url, tr), names, p.fx, p.want, half, tr)
		p.r.count(ls.requests, ls.failed)
		return ls, 0
	}
	c0, _ := p.st.cacheStats()
	p.tr.on.Store(false)
	runtime.ReadMemStats(&ms0)
	var pos int
	err := timed(p.cfg, func() { plain, pos = phase(nil, 0) })
	runtime.ReadMemStats(&ms1)
	p.tr.on.Store(true)
	if err != nil {
		return err
	}
	spanned, p.applied = phase(p.tr, pos)
	c1, _ := p.st.cacheStats()
	p.r.add("httpserve.cache_coalesced", float64(c1.Coalesced-c0.Coalesced), "count")
	p.r.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	p.r.add("runtime.gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	segs := segments(plain, max(1, int(plain.wall/time.Second)))
	p.r.add("latency_p99_ms", medianOf(segs, func(s segment) float64 { return s.latP99 }), "ms")
	p.r.add("first_tuple_p99_ms", medianOf(segs, func(s segment) float64 { return s.firstP99 }), "ms")
	pl, _ := latencies(plain.samples)
	tl, _ := latencies(spanned.samples)
	a, b := summarize(pl), summarize(tl)
	p.r.add("trace.overhead_pct", (b.P50/a.P50-1)*100, "%")
	p.r.notef("tracing overhead: latency p50 %.4f ms untraced, %.4f ms traced; requests/s %.1f untraced, %.1f traced",
		a.P50, b.P50, float64(plain.requests)/plain.wall.Seconds(), float64(spanned.requests)/spanned.wall.Seconds())
	return nil
}

// finish prints the self-time table, writes the span, layer and count
// files, and checks the counts against an earlier run of the same seed.
func (p *probe) finish() error {
	spans := p.tr.snapshot()
	rows := selfTimes(spans)
	p.r.notef("per-layer self time (%d spans):\n%s", len(spans), formatSelfTable(rows))
	base := filepath.Join(outDir, fmt.Sprintf("%s-%d", p.cfg.workload, p.cfg.seed))
	if err := writeSpans(base+"-spans.jsonl", spans); err != nil {
		return err
	}
	layers := map[string]metric{}
	for k, v := range p.r.res.Metrics {
		layers[k] = v
	}
	for k, v := range p.r.extra {
		layers[k] = v
	}
	if err := writeJSON(base+"-layers.json", map[string]any{"metrics": layers, "self_time": rows}); err != nil {
		return err
	}
	p.r.notef("spans: %s-spans.jsonl, layers: %s-layers.json", base, base)
	build, err := buildID()
	if err != nil {
		return err
	}
	return p.checkCounts(fmt.Sprintf("%s-%s-counts.json", base, build))
}

// buildID names the running binary by a hash of its bytes, so counts are
// only ever compared between runs of one build of the program.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// checkCounts compares the exact counts with those an earlier run of the
// same build, workload and seed wrote, or writes them for the next run.
func (p *probe) checkCounts(path string) error {
	old, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		p.r.notef("exact counts recorded in %s; the next traced run of this seed checks them", path)
		return writeJSON(path, p.counts)
	}
	if err != nil {
		return err
	}
	var prev map[string]float64
	if err := json.Unmarshal(old, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(p.counts))
	for k := range p.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	p.r.count(1, 0)
	for _, k := range names {
		if v, ok := prev[k]; !ok || v != p.counts[k] {
			p.r.count(0, 1)
			p.r.fail("count %s is %v, an earlier run of this seed had %v", k, p.counts[k], prev[k])
			return nil
		}
	}
	p.r.notef("exact counts repeat the earlier run of this seed: %v", names)
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
