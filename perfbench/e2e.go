package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"cqrep/internal/httpserve"
)

// warmup is the discarded closed-loop phase before timing, which lets the
// result cache reach its steady state for the stream.
func warmup(d time.Duration) time.Duration { return min(time.Second, d/4) }

// runServed is the untraced end-to-end run of a read workload served over
// HTTP (scan, lookup, dist_scan).
func runServed(cfg config, r *report, mk func(int64) *fixture) error {
	if cfg.trace {
		return runTraced(cfg, r, mk(cfg.seed), nil)
	}
	var setupS []float64
	var st *stack
	var fx *fixture
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for k := 0; k < setups; k++ {
		if st != nil {
			st.close()
			st = nil
		}
		fx = mk(cfg.seed)
		start := time.Now()
		s, err := setupStack(fx, filepath.Join(cfg.tmp, fmt.Sprintf("setup%d", k)), nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		st = s
	}
	heap := heapAfterGC()
	cl := newClient(st.url, nil)
	want, err := gateServed(fx, st, cl)
	if err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	describeStream(r, fx, want)
	names := st.rep.BoundNames()
	d := cfg.duration()
	warm := httpLoop(cl, names, fx, want, warmup(d), nil)
	r.count(warm.requests, warm.failed)
	before, _ := st.cacheStats()
	var ls loopStats
	if err := timed(cfg, func() { ls = httpLoop(cl, names, fx, want, d, nil) }); err != nil {
		return err
	}
	after, _ := st.cacheStats()
	r.count(ls.requests, ls.failed)
	reportLoop(r, ls, setupS, heap, float64(st.rep.Stats().Bytes))
	r.notef("cache: budget %d B, timed-phase hits %d misses %d coalesced %d evictions %d (hit ratio %.3f)",
		cacheBytes, after.Hits-before.Hits, after.Misses-before.Misses, after.Coalesced-before.Coalesced,
		after.Evictions-before.Evictions, hitRatio(before, after))
	return nil
}

// describeStream prints the stream's shape: distinct bindings, answers
// per request, and the distinct answer tuples the cache would have to hold.
func describeStream(r *report, fx *fixture, want []int32) {
	sizes := make([]float64, len(want))
	for i, w := range want {
		sizes[i] = float64(w)
	}
	uniq := map[string]int32{}
	for i, vb := range fx.stream {
		uniq[string(vb.AppendEncode(nil))] = want[i]
	}
	distinctTuples := 0
	for _, w := range uniq {
		distinctTuples += int(w)
	}
	s := summarize(sizes)
	r.notef("stream: %d requests, %d distinct bindings; answers per request p50 %g p99 %g max %g; %d distinct answer tuples",
		len(fx.stream), len(uniq), s.P50, s.P99, sizes[len(sizes)-1], distinctTuples)
}

// cacheStats reads the result cache clients hit first: the handler's, or
// the coordinator's.
func (s *stack) cacheStats() (httpserve.CacheStats, bool) {
	if s.co != nil {
		return s.co.CacheStats()
	}
	return s.handler.CacheStats()
}

func hitRatio(before, after httpserve.CacheStats) float64 {
	hits := after.Hits - before.Hits + after.Coalesced - before.Coalesced
	total := hits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// segment is one slice of a timed phase.
type segment struct {
	reqPerS, tuplesPerS, latP50, latP99, firstP50, firstP99 float64
}

// segments cuts a timed phase into n equal slices by completion time.
// The end-to-end figures are medians over slices, so a burst of outside
// load that spoils one slice does not move them.
func segments(ls loopStats, n int) []segment {
	width := ls.wall / time.Duration(n)
	parts := make([][]sample, n)
	for _, s := range ls.samples {
		i := min(int(s.end/width), n-1)
		parts[i] = append(parts[i], s)
	}
	out := make([]segment, n)
	for i, part := range parts {
		tuples := 0
		for _, s := range part {
			tuples += s.tuples
		}
		lat, first := latencies(part)
		sort.Float64s(lat)
		sort.Float64s(first)
		out[i] = segment{
			reqPerS: float64(len(part)) / width.Seconds(), tuplesPerS: float64(tuples) / width.Seconds(),
			latP50: percentile(lat, 0.5), latP99: percentile(lat, 0.99),
			firstP50: percentile(first, 0.5), firstP99: percentile(first, 0.99),
		}
	}
	return out
}

// medianOf is the median over segments of one field.
func medianOf(segs []segment, f func(segment) float64) float64 {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// reportLoop adds the end-to-end metrics of one timed closed loop: the
// medians over one-second segments of throughput and median latencies.
// The p99s are printed but kept off the result line: they do not repeat
// across runs closely enough to gate on, so the traced run reports them
// per layer.
func reportLoop(r *report, ls loopStats, setupS []float64, heap, space float64) {
	segs := segments(ls, max(1, int(ls.wall/time.Second)))
	r.add("setup_s", median(setupS), "s")
	r.add("requests_per_s", medianOf(segs, func(s segment) float64 { return s.reqPerS }), "1/s")
	r.add("tuples_per_s", medianOf(segs, func(s segment) float64 { return s.tuplesPerS }), "1/s")
	r.add("latency_p50_ms", medianOf(segs, func(s segment) float64 { return s.latP50 }), "ms")
	r.add("first_tuple_p50_ms", medianOf(segs, func(s segment) float64 { return s.firstP50 }), "ms")
	r.add("space_bytes", space, "B")
	r.add("heap_bytes", heap, "B")
	r.notef("setup_s over %d set-ups: %v", len(setupS), setupS)
	lat, first := latencies(ls.samples)
	ls0, fs0 := summarize(lat), summarize(first)
	r.notef("timed phase: %d segments of %.2f s; %d requests, %d failed", len(segs), (ls.wall / time.Duration(len(segs))).Seconds(), ls.requests, ls.failed)
	for _, s := range []struct {
		name string
		sum  summary
	}{{"latency", ls0}, {"first_tuple", fs0}} {
		r.notef("%s over the whole phase: n=%d, p50 %.4g ms, p99 %.4g ms with %d samples beyond; highest percentile with >=%d beyond: p%g = %.4g ms",
			s.name, s.sum.N, s.sum.P50, s.sum.P99, s.sum.Beyond, minBeyond, s.sum.TailQ*100, s.sum.Tail)
	}
	if perSeg := fs0.N / len(segs); perSeg/100 < minBeyond {
		r.notef("warning: about %d first-tuple samples a segment leave fewer than %d beyond each segment's p99", perSeg, minBeyond)
	}
}
