package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/relation"
)

// query.go is the request path both serving fronts share: a cqserve node
// (Handler) and the cqcoord coordinator (internal/coord). Front owns
// everything between the HTTP request and a tuple source — the capped body
// read, binding parse and format negotiation, the result cache (hit replay,
// follower wait, leader tee → Publish/Abandon), the stream loop over
// StreamWriter, and the disposition counters behind the /v1/stats keys
// both fronts report. A front supplies only a Resolver: how a view name
// becomes a Query with a tuple Source.

// Query is one request a front has resolved against its view table.
type Query struct {
	// Source opens the tuple stream; the shared path Releases it once the
	// request is done with it.
	Source Source
	// counters, when set, also count this request on a node's per-view
	// /v1/stats row.
	counters *viewCounters
	// View is the client-facing view name: the X-Cqrep-View header and the
	// cache key's view component.
	View string
	// Bound is the bound valuation; its canonical encoding is the cache
	// key's binding, so two JSON spellings of one binding share an entry.
	Bound relation.Tuple
	// Gen is the registry or shard-map generation the request holds. The
	// cache keys on it, so a replay always belongs to that generation.
	Gen uint64
	// Arity is the free-variable count: X-Cqrep-Free and the binary header.
	Arity int
}

// Source is a resolved view's tuple source.
type Source interface {
	// Open starts the enumeration. core.ErrClosed means the view retired
	// before anything was streamed; the request is then resolved again.
	Open(ctx context.Context) (core.Iterator, error)
	// Release drops the reference the resolver took on the view.
	Release()
}

// Resolver maps a view name and its parsed request onto a Query. A
// *StatusError fails the request with its status, core.ErrBadBinding with
// 400, and any other error with 500; core.ErrClosed resolves again, so a
// request that raced a registry or shard-map swap lands wholly on the
// fresh generation.
type Resolver func(view string, req QueryRequest) (Query, error)

// StatusError is a request failure that answers with its own HTTP status.
type StatusError struct {
	Msg    string
	Status int
}

func (e *StatusError) Error() string { return e.Msg }

// StatusErrorf formats a *StatusError.
func StatusErrorf(status int, format string, args ...any) error {
	return &StatusError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// streamDisposition is how one started stream ended; it indexes the
// streams counters.
type streamDisposition int

const (
	// streamComplete: a clean terminal, including limit-truncated streams
	// (the client got what it asked for).
	streamComplete streamDisposition = iota
	// streamErrored: a terminal error reached the client (the IterErr
	// contract).
	streamErrored
	// streamAborted: the client went away, shutdown cut the stream, or its
	// terminal failed to write. The client did NOT see a clean terminal, so
	// counting it as served would hide mid-stream terminations.
	streamAborted
)

// viewCounters are a node's per-view /v1/stats counters: streams started
// or replayed, split by disposition, and the tuples streamed live (cache
// replays are not counted: the view did not enumerate them).
type viewCounters struct {
	requests atomic.Uint64
	tuples   atomic.Uint64
	streams  [3]atomic.Uint64 // by streamDisposition
}

// Front is the shared query path of one serving front.
type Front struct {
	cache      *ResultCache // nil when caching is off
	resolve    Resolver
	start      time.Time
	maxBody    int64
	flushBatch int
	failStatus int // answers a source that fails before its first tuple

	requests atomic.Uint64
	errors   atomic.Uint64
	tuples   atomic.Uint64
	// streams counts every stream that started (headers committed or first
	// tuple produced) in exactly one disposition bucket.
	streams [3]atomic.Uint64
	delay   LatencyHist // time to first streamed tuple
	total   LatencyHist // full request wall-clock of started streams
}

// NewFront returns the query path for one front. failStatus answers a
// source that fails before its first tuple is written: 500 on a node, 502
// at the coordinator. maxBodyBytes <= 0 means 1 MiB; flushBatch <= 0
// means the StreamWriter default; a nil cache turns caching off.
func NewFront(resolve Resolver, failStatus int, maxBodyBytes int64, flushBatch int, cache *ResultCache) *Front {
	if maxBodyBytes <= 0 {
		maxBodyBytes = 1 << 20
	}
	return &Front{cache: cache, resolve: resolve, start: time.Now(), maxBody: maxBodyBytes, flushBatch: flushBatch, failStatus: failStatus}
}

// ErrorJSON writes a one-object JSON error body with the given status and
// counts it.
func (f *Front) ErrorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	f.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// fail answers a request that failed before streaming: a *StatusError
// carries its own status, core.ErrBadBinding is the client's 400, and
// anything else answers with status.
func (f *Front) fail(w http.ResponseWriter, err error, status int) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		status = se.Status
	case errors.Is(err, core.ErrBadBinding):
		status = http.StatusBadRequest
	}
	f.ErrorJSON(w, status, "%v", err)
}

// HandleHealth is GET /healthz on both fronts: process liveness, the
// process is up and dispatching. It says nothing about views — a worker
// with no shards yet is healthy.
func HandleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true})
}

// ServeQuery is POST /v1/query/{view}: one access request streamed in the
// negotiated format. Each result tuple is one NDJSON line or binary data
// frame in enumeration order; a stream that dies mid-way ends with the
// format's terminal error, so clients can tell a truncated enumeration
// from a complete one (see core.IterErr).
func (f *Front) ServeQuery(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.maxBody))
	if err != nil {
		// Only an actual size overflow is 413; any other read failure
		// (malformed chunking, client disconnect mid-body) is the
		// client's bad request, not an oversized one.
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		f.ErrorJSON(w, status, "request body: %v", err)
		return
	}
	req, err := ParseBindings(body)
	if err != nil {
		f.ErrorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := NegotiateFormat(r.Header.Get("Accept"))
	view := r.PathValue("view")
	for attempt := 0; attempt < 8; attempt++ {
		q, err := f.resolve(view, req)
		if errors.Is(err, core.ErrClosed) {
			continue
		}
		if err != nil {
			f.fail(w, err, http.StatusInternalServerError)
			return
		}
		if f.serve(w, r, &q, req.Limit, format, start) {
			return
		}
	}
	f.ErrorJSON(w, http.StatusServiceUnavailable, "view %q is reloading, retry", view)
}

// serve answers one resolved request from the cache or from its source,
// and releases the source. It reports false when the source's view retired
// before anything was streamed; the caller then resolves again.
func (f *Front) serve(w http.ResponseWriter, r *http.Request, q *Query, limit int, format Format, start time.Time) bool {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// Deferred after cancel, so it runs first: the coordinator's Release
	// drains its worker links back into the connection pool, which a
	// cancelled context would cut instead.
	defer q.Source.Release()
	var flight *CacheFlight
	if f.cache != nil && limit == 0 {
		res := f.cache.Acquire(q.View, q.Gen, format, string(q.Bound.AppendEncode(nil)))
		switch {
		case res.Hit:
			f.replay(w, q, format, res.Body, res.Tuples, start)
			return true
		case res.Leader:
			// This request leads the cache fill: its bytes are teed and
			// published on a complete stream, abandoned on any other
			// outcome so waiters fall back instead of hanging.
			flight = res.Flight
			defer func() {
				if flight != nil {
					f.cache.Abandon(flight)
				}
			}()
		default:
			// Follower: the leader's bytes were produced under the
			// generation this request holds. A failed flight (or our own
			// context expiring while parked) falls back to the source;
			// coalescing never turns one stream's failure into another's.
			if body, tuples, ok := res.Flight.Wait(r.Context()); ok {
				f.replay(w, q, format, body, tuples, start)
				return true
			}
		}
	}

	it, err := q.Source.Open(ctx)
	if errors.Is(err, core.ErrClosed) {
		return false
	}
	if err != nil {
		f.fail(w, err, f.failStatus)
		return true
	}
	if q.counters != nil {
		q.counters.requests.Add(1)
	}
	// Headers are staged but the status line is only committed by the
	// first flush, so a source that fails before producing anything can
	// still answer with a real error status.
	setViewHeaders(w, q)
	var tee *CacheTee
	if flight != nil {
		tee = NewCacheTee(w, f.cache.MaxEntryBytes())
		w = tee
	}
	sw := NewStreamWriter(w, format, q.Arity, f.flushBatch)
	disp := f.stream(w, sw, it, limit, ctx, cancel, start)
	if q.counters != nil {
		q.counters.tuples.Add(uint64(sw.Wrote()))
	}
	f.finish(q, disp, sw.Wrote(), start)
	if tee != nil && disp == streamComplete {
		if body, ok := tee.Captured(); ok {
			f.cache.Publish(flight, body, sw.Wrote())
			flight = nil
		}
	}
	return true
}

// stream is the stream loop: tuples from it through sw until the source
// ends or the limit is met, then the terminal. Only a source that finished
// cleanly, or a limit-satisfied one, earns the clean end. The request
// context is checked before every Next, so shutdown or a disconnect stops
// a source that does not watch ctx itself (a node's representation) within
// one tuple.
func (f *Front) stream(w http.ResponseWriter, sw *StreamWriter, it core.Iterator, limit int, ctx context.Context, cancel context.CancelFunc, start time.Time) streamDisposition {
	done := ctx.Done()
	for {
		if limit > 0 && sw.Wrote() == limit {
			cancel() // the client is served: stop the source
			break
		}
		select {
		case <-done:
			return f.streamError(w, sw, ctx.Err(), true)
		default:
		}
		t, ok := it.Next()
		if !ok {
			if err := core.IterErr(it); err != nil {
				return f.streamError(w, sw, err, ctx.Err() != nil)
			}
			break
		}
		if sw.Wrote() == 0 {
			f.delay.Add(time.Since(start))
		}
		if sw.Tuple(t) != nil {
			return streamAborted // client went away; the deferred cancel abandons the source
		}
	}
	if sw.End() != nil {
		return streamAborted
	}
	return streamComplete
}

// streamError ends a stream whose source failed. A source error, or a
// cancellation (shutdown, disconnect) that cut the enumeration short, must
// reach the client as the format's terminal error: an abort that ended in
// plain EOF would pass for a complete NDJSON result, and an end frame
// after an abort would forge completion — the silent truncation the
// IterErr contract exists to prevent.
func (f *Front) streamError(w http.ResponseWriter, sw *StreamWriter, err error, cut bool) streamDisposition {
	if cut {
		sw.Error(err.Error()) // best effort: the client is most likely gone
		return streamAborted
	}
	if sw.Wrote() == 0 {
		// Nothing is committed yet (a binary header is only staged), so the
		// status line is still ours: fail properly instead of a 200 with an
		// error trailer.
		f.ErrorJSON(w, f.failStatus, "%v", err)
		return streamErrored
	}
	f.errors.Add(1)
	if sw.Error(err.Error()) != nil {
		return streamAborted
	}
	return streamErrored
}

// replay serves one cached encoded stream with the headers and counters a
// live complete stream would have had; a failed write counts it aborted.
func (f *Front) replay(w http.ResponseWriter, q *Query, format Format, body []byte, tuples int, start time.Time) {
	if q.counters != nil {
		q.counters.requests.Add(1)
	}
	setViewHeaders(w, q)
	w.Header().Set("Content-Type", format.MediaType())
	if tuples > 0 {
		f.delay.Add(time.Since(start))
	}
	disp := streamComplete
	if _, err := w.Write(body); err != nil {
		disp = streamAborted
	}
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
	f.finish(q, disp, tuples, start)
}

// finish accounts one started stream.
func (f *Front) finish(q *Query, disp streamDisposition, tuples int, start time.Time) {
	f.tuples.Add(uint64(tuples))
	f.streams[disp].Add(1)
	if q.counters != nil {
		q.counters.streams[disp].Add(1)
	}
	f.total.Add(time.Since(start))
}

func setViewHeaders(w http.ResponseWriter, q *Query) {
	w.Header().Set("X-Cqrep-View", q.View)
	w.Header().Set("X-Cqrep-Free", strconv.Itoa(q.Arity))
}

// QueryStats is the block of /v1/stats keys both fronts share.
type QueryStats struct {
	UptimeMs int64  `json:"uptime_ms"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Tuples   uint64 `json:"tuples"`
	// The streams_* counters split how started streams ended: complete
	// (clean terminal, including limit-truncated), errored (terminal error
	// delivered per the IterErr contract), aborted (client gone, shutdown,
	// or a terminal that failed to write — no clean terminal, so it must
	// not be mistaken for a served request).
	StreamsComplete uint64         `json:"streams_complete"`
	StreamsErrored  uint64         `json:"streams_errored"`
	StreamsAborted  uint64         `json:"streams_aborted"`
	FirstTuple      LatencySummary `json:"first_tuple"`
	Total           LatencySummary `json:"total"`
}

// Stats snapshots the shared counters.
func (f *Front) Stats() QueryStats {
	return QueryStats{
		UptimeMs:        time.Since(f.start).Milliseconds(),
		Requests:        f.requests.Load(),
		Errors:          f.errors.Load(),
		Tuples:          f.tuples.Load(),
		StreamsComplete: f.streams[streamComplete].Load(),
		StreamsErrored:  f.streams[streamErrored].Load(),
		StreamsAborted:  f.streams[streamAborted].Load(),
		FirstTuple:      f.delay.Summary(),
		Total:           f.total.Summary(),
	}
}
