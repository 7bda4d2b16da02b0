package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/coord"
	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// distWorkers is dist_scan's shard and worker count.
const distWorkers = 2

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 30 * time.Second

// stack is one set-up serving stack: the compiled representation, its
// snapshot, and the HTTP front clients talk to (a handler, or a
// coordinator over workers).
type stack struct {
	rep     *core.Representation
	path    string
	url     string
	handler *httpserve.Handler  // single node; nil under a coordinator
	co      *coord.Coordinator  // dist_scan only
	workers []*httpserve.Client // dist_scan only, each a worker's base URL
	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// traced wraps h in a span named name, parented by the client span the
// request header names. With tracing off it returns h unchanged.
func traced(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := decodeHeader(r.Header.Get(requestHeader))
		o := tr.begin(name, parent, req)
		h.ServeHTTP(w, r)
		tr.end(o)
	})
}

// setupStack takes a fixture from generated inputs to the first
// answerable request: compile, snapshot write, server load, and (for a
// sharded fixture) coordinator start and worker joins.
func setupStack(fx *fixture, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o := tr.begin("setup.compile", 0, 0)
	rep, err := core.Build(fx.view, fx.db, fx.opts...)
	tr.end(o)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", fx.name, err)
	}
	st := &stack{rep: rep, path: filepath.Join(dir, "view.cqs")}
	o = tr.begin("setup.snapshot_write", 0, 0)
	err = writeSnapshot(rep, st.path)
	tr.end(o)
	if err != nil {
		return nil, err
	}
	o = tr.begin("setup.serve", 0, 0)
	if rep.Stats().Shards > 1 {
		err = st.startCoordinator(dir, tr)
	} else {
		err = st.startHandler(tr)
	}
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err = (&httpserve.Client{Base: st.url}).Ready(ctx)
		cancel()
	}
	tr.end(o)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("start %s: %w", fx.name, err)
	}
	return st, nil
}

func writeSnapshot(rep *core.Representation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := rep.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (s *stack) startHandler(tr *tracer) error {
	h, err := httpserve.New([]string{s.path}, httpserve.Options{CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	s.handler = h
	s.closers = append(s.closers, h.Close)
	ts := httptest.NewServer(traced(tr, "httpserve.handler", h))
	s.closers = append(s.closers, ts.Close)
	s.url = ts.URL
	return nil
}

// startCoordinator serves the sharded snapshot through a coordinator and
// joins distWorkers in-process workers to it over the wire.
func (s *stack) startCoordinator(dir string, tr *tracer) error {
	var cptr atomic.Pointer[coord.Coordinator]
	ts := httptest.NewServer(traced(tr, "coord.handler", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c := cptr.Load(); c != nil {
			c.ServeHTTP(w, r)
			return
		}
		http.Error(w, "starting", http.StatusServiceUnavailable)
	})))
	s.closers = append(s.closers, ts.Close)
	s.url = ts.URL
	co, err := coord.New([]string{s.path}, coord.Options{SelfURL: ts.URL, SpoolDir: filepath.Join(dir, "coord-spool"), CacheBytes: cacheBytes})
	if err != nil {
		return err
	}
	s.co = co
	s.closers = append(s.closers, co.Close)
	cptr.Store(co)
	for i := 0; i < distWorkers; i++ {
		wh, err := httpserve.NewSpecs(nil, httpserve.Options{Admin: true, SpoolDir: filepath.Join(dir, fmt.Sprintf("worker%d", i)), CacheBytes: cacheBytes})
		if err != nil {
			return err
		}
		s.closers = append(s.closers, wh.Close)
		wts := httptest.NewServer(traced(tr, "worker.handler", wh))
		s.closers = append(s.closers, wts.Close)
		s.workers = append(s.workers, newClient(wts.URL, nil))
		body, err := json.Marshal(map[string]string{"url": wts.URL})
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("join worker %d: %w", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("join worker %d: %s", i, resp.Status)
		}
	}
	return nil
}

// spanKey carries a request's trace header value through its context.
type spanKey struct{}

// headerTransport stamps the trace header from the request context.
type headerTransport struct{ base http.RoundTripper }

func (t headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(requestHeader, v)
	}
	return t.base.RoundTrip(r)
}

// newClient returns a client with its own keep-alive pool; a traced one
// forwards request ids to the server.
func newClient(base string, tr *tracer) *httpserve.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	if tr != nil {
		rt = headerTransport{rt}
	}
	return &httpserve.Client{Base: base, HTTP: &http.Client{Transport: rt}}
}

// outcome is one served request as the client saw it.
type outcome struct {
	lat, first time.Duration // send to terminal; send to first tuple
	tuples     int
	got        []relation.Tuple // kept only when asked
	err        error
	req        uint64 // trace request id; 0 when untraced
}

// doQuery sends one request and drains its stream, timing the first tuple
// and the terminal.
func doQuery(cl *httpserve.Client, view string, args map[string]relation.Value, format httpserve.Format, keep bool, tr *tracer) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	sp := tr.begin("client.request", 0, tr.newRequest())
	if sp.id != 0 {
		ctx = context.WithValue(ctx, spanKey{}, encodeHeader(sp.req, sp.id))
	}
	o := outcome{req: sp.req}
	start := time.Now()
	s, err := cl.Open(ctx, view, httpserve.QueryOptions{Bindings: args, Format: format})
	if err != nil {
		o.err = err
		tr.end(sp)
		return o
	}
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		if o.tuples == 0 {
			o.first = time.Since(start)
		}
		o.tuples++
		if keep {
			o.got = append(o.got, t)
		}
	}
	o.err = s.Err()
	if cerr := s.Close(); o.err == nil {
		o.err = cerr
	}
	o.lat = time.Since(start)
	tr.end(sp)
	return o
}

// sample is one completed request.
type sample struct {
	end    time.Duration // completion, since the loop started
	lat    float64       // milliseconds
	first  float64       // milliseconds; negative when the answer was empty
	tuples int
}

// loopStats is what a closed loop measured.
type loopStats struct {
	samples          []sample // successful requests only
	requests, failed int
	wall             time.Duration
}

func (a *loopStats) merge(b loopStats) {
	a.samples = append(a.samples, b.samples...)
	a.requests += b.requests
	a.failed += b.failed
}

// record folds one request, completed at end, into the stats; a request
// whose stream failed or whose tuple count differs from the precomputed
// one is a failure. A negative want means the count is not known in
// advance.
func (a *loopStats) record(o outcome, want int, end time.Duration) {
	a.requests++
	if o.err != nil || (want >= 0 && o.tuples != want) {
		a.failed++
		return
	}
	first := -1.0
	if o.tuples > 0 {
		first = ms(o.first)
	}
	a.samples = append(a.samples, sample{end: end, lat: ms(o.lat), first: first, tuples: o.tuples})
}

// latencies returns the request latencies and the first-tuple times of
// the non-empty answers among samples.
func latencies(samples []sample) (lat, first []float64) {
	for _, s := range samples {
		lat = append(lat, s.lat)
		if s.first >= 0 {
			first = append(first, s.first)
		}
	}
	return lat, first
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// httpLoop drives the fixture's stream for d with clients closed-loop
// clients: each sends its next request once the previous one's terminal
// arrived. Requests take stream positions in order from a shared counter.
func httpLoop(cl *httpserve.Client, names []string, fx *fixture, want []int32, d time.Duration, tr *tracer) loopStats {
	var next atomic.Int64
	per := make([]loopStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range per {
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(fx.stream)
				o := doQuery(cl, fx.view.Name, bindings(names, fx.stream[i]), fx.format, false, tr)
				st.record(o, int(want[i]), time.Since(start))
			}
		}(&per[c])
	}
	wg.Wait()
	var all loopStats
	for _, p := range per {
		all.merge(p)
	}
	all.wall = time.Since(start)
	return all
}

// gateServed is the correctness gate run before timing. Every checked
// binding (every distinct one, or a seeded sample) must enumerate in
// process the same tuples, as sorted lists, as an independent
// DirectStrategy compile, and its HTTP stream must decode to exactly the
// in-process enumeration. It returns the expected tuple count of every
// stream position, which the timed loop checks each response against.
func gateServed(fx *fixture, st *stack, cl *httpserve.Client) ([]int32, error) {
	direct, err := core.Build(fx.view, fx.db, core.WithStrategy(core.DirectStrategy))
	if err != nil {
		return nil, fmt.Errorf("direct compile: %w", err)
	}
	names := st.rep.BoundNames()
	uniq := distinct(fx.stream)
	check := uniq
	if fx.sampled > 0 && len(check) > fx.sampled {
		check = check[:fx.sampled]
	}
	for _, vb := range check {
		local, err := drainRep(st.rep, vb)
		if err != nil {
			return nil, err
		}
		if !sameSorted(local, core.Drain(direct.Query(vb))) {
			return nil, fmt.Errorf("binding %v: compiled answers differ from DirectStrategy", vb)
		}
		o := doQuery(cl, fx.view.Name, bindings(names, vb), fx.format, true, nil)
		if err := checkStream(o.got, o.err, local); err != nil {
			return nil, fmt.Errorf("binding %v over HTTP: %w", vb, err)
		}
	}
	counts := make(map[string]int32, len(uniq))
	for _, vb := range uniq {
		local, err := drainRep(st.rep, vb)
		if err != nil {
			return nil, err
		}
		counts[string(vb.AppendEncode(nil))] = int32(len(local))
	}
	want := make([]int32, len(fx.stream))
	for i, vb := range fx.stream {
		want[i] = counts[string(vb.AppendEncode(nil))]
	}
	return want, nil
}

func drainRep(rep *core.Representation, vb relation.Tuple) ([]relation.Tuple, error) {
	it := rep.Query(vb)
	ts := core.Drain(it)
	if err := core.IterErr(it); err != nil {
		return nil, fmt.Errorf("binding %v in process: %w", vb, err)
	}
	return ts, nil
}
