package coord

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
)

// query.go is the coordinator's half of the shared query path
// (httpserve.Front): route or scatter, and merge. A bound-key request
// opens exactly one worker stream (the shard relation.ShardOf names — the
// partitioner's own hash, so routing can never disagree with placement); a
// free enumeration opens one stream per shard and k-way merges their heads
// under the view's EnumOrder with ties broken by shard index, the same
// comparison the in-process sharded backend's merge iterator uses. Hash
// partitioning makes the shards disjoint, so the merged stream, which the
// shared path re-encodes into the client's format, is byte-identical to a
// single node's.
//
// The failure discipline mirrors core.IterErr: the first worker-stream
// error stops the merge immediately — merging past a dead shard would
// emit a gapped result that looks complete — and reaches the client as
// the negotiated format's terminal error (or a real 502 when nothing has
// been streamed yet). A worker that dies mid-stream shows up as binary
// truncation on the coordinator's side, never as a clean end, because the
// worker link always uses the framed binary encoding.

// resolve maps a view name onto its routing card and the shard map
// generation the request streams on, holding a reference on that
// generation until Release.
func (c *Coordinator) resolve(name string, req httpserve.QueryRequest) (httpserve.Query, error) {
	vm, ok := c.views[name]
	if !ok {
		return httpserve.Query{}, httpserve.StatusErrorf(http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", name)
	}
	vb, err := vm.rep.Bind(req.Bindings)
	if err != nil {
		return httpserve.Query{}, err
	}
	sm := c.smap.Load()
	if sm == nil {
		return httpserve.Query{}, httpserve.StatusErrorf(http.StatusServiceUnavailable, "coordinator is shutting down")
	}
	if !sm.acquire() {
		return httpserve.Query{}, core.ErrClosed // swapped under us: resolve on the successor
	}
	s := &scatter{vm: vm, sm: sm, c: c, req: req}
	if vm.keyIdx >= 0 {
		s.add(relation.ShardOf(vb[vm.keyIdx], vm.shards))
	} else {
		for i := 0; i < vm.shards; i++ {
			s.add(i)
		}
	}
	for _, ss := range s.streams {
		if ss.worker == "" {
			sm.release()
			return httpserve.Query{}, httpserve.StatusErrorf(http.StatusServiceUnavailable, "shard %s has no worker yet", scopedName(vm.name, ss.shard))
		}
	}
	return httpserve.Query{
		Source: s,
		View:   vm.name,
		Bound:  vb,
		Gen:    sm.gen,
		Arity:  vm.arity,
	}, nil
}

// scatter is one routed or scattered request. As the query's Source it
// opens a worker stream per target shard; as the iterator Open returns it
// is their k-way merge.
type scatter struct {
	start   time.Time
	err     error
	c       *Coordinator
	vm      *viewMeta
	sm      *shardMap
	req     httpserve.QueryRequest
	streams []*shardStream
	last    *shardStream // the stream whose head Next returned last
}

func (s *scatter) add(shard int) {
	owner := s.sm.owners[s.vm.name][shard]
	s.streams = append(s.streams, &shardStream{shard: shard, worker: owner})
}

// Open dials every target shard's owner in parallel and primes the merge
// heads. Any worker that cannot be opened fails the request before a byte
// is written.
func (s *scatter) Open(ctx context.Context) (core.Iterator, error) {
	s.start = time.Now()
	var wg sync.WaitGroup
	for _, ss := range s.streams {
		ss.ws = s.c.statsFor(ss.worker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss.ws.requests.Add(1)
			st, err := s.c.workerClient(ss.worker).Open(ctx, scopedName(s.vm.name, ss.shard), httpserve.QueryOptions{
				Bindings: s.req.Bindings,
				Limit:    s.req.Limit, // a merged prefix of L draws only from per-shard prefixes of L
				Format:   httpserve.FormatBinary,
			})
			if err != nil {
				ss.err = err
				ss.ws.errors.Add(1)
				return
			}
			ss.st = st
		}()
	}
	wg.Wait()
	for _, ss := range s.streams {
		if ss.st == nil {
			return nil, fmt.Errorf("worker %s shard %d: %v", ss.worker, ss.shard, ss.err)
		}
	}
	for _, ss := range s.streams {
		ss.advance(s.start)
	}
	return s, nil
}

// Next returns the least head under the view's EnumOrder. The first shard
// error wins and stops the merge: past it the merged order can no longer
// be trusted, and a gapped "complete" stream is exactly the silent
// truncation the terminal forbids.
func (s *scatter) Next() (relation.Tuple, bool) {
	if s.last != nil {
		s.last.advance(s.start)
		s.last = nil
	}
	for _, ss := range s.streams {
		if !ss.live && ss.err != nil {
			s.err = fmt.Errorf("worker %s shard %d: %v", ss.worker, ss.shard, ss.err)
			return nil, false
		}
	}
	for _, ss := range s.streams {
		if ss.live && (s.last == nil || tupleLess(ss.head, s.last.head, s.vm.cmpOrder)) {
			s.last = ss
		}
	}
	if s.last == nil {
		return nil, false
	}
	return s.last.head, true
}

// Err is the merge's terminal verdict: nil after a clean end, else the
// first shard's error.
func (s *scatter) Err() error { return s.err }

// Release closes the worker streams and drops the map reference.
func (s *scatter) Release() {
	for _, ss := range s.streams {
		if ss.st != nil {
			ss.st.Close()
		}
	}
	s.sm.release()
}

// shardStream is one open worker stream plus its merge head.
type shardStream struct {
	ws       *workerStats
	st       httpserve.Stream
	err      error
	worker   string
	head     relation.Tuple
	shard    int
	live     bool // head holds an undelivered tuple
	sawTuple bool
}

// advance pulls the next head; on exhaustion it records the stream's
// terminal verdict (nil = complete, anything else = worker error or
// mid-stream death seen as binary truncation).
func (ss *shardStream) advance(start time.Time) {
	t, ok := ss.st.Next()
	if !ok {
		ss.live = false
		ss.err = ss.st.Err()
		if ss.err != nil {
			ss.ws.errors.Add(1)
		}
		return
	}
	if !ss.sawTuple {
		ss.sawTuple = true
		ss.ws.delay.Add(time.Since(start))
	}
	ss.head, ss.live = t, true
}

// tupleLess is the EnumOrder comparison of the merge: cmpOrder lists every
// position, the declared order first. Distinct tuples always differ at
// some position, and identical tuples hash to the same shard, so the merge
// never sees a true tie across shards.
func tupleLess(a, b relation.Tuple, cmpOrder []int) bool {
	for _, idx := range cmpOrder {
		if a[idx] != b[idx] {
			return a[idx] < b[idx]
		}
	}
	return false
}
