// Package httpserve is the network front of the compile-once /
// enumerate-many model: it serves one or more snapshot-loaded compiled
// representations over HTTP, so a single compilation pays off across any
// number of remote clients (the ROADMAP's "heavy traffic from millions of
// users" north star). The wire API is specified in DESIGN.md §5:
//
//	POST /v1/query/{view}  JSON bindings in, NDJSON or binary tuples out
//	                       (streamed in enumeration order, bounded
//	                       per-request buffers, terminal error on failure)
//	GET  /v1/views         the registry: names, adornments, strategies
//	GET  /v1/stats         tuple/shard counts, request/latency counters
//	POST /v1/reload        re-read the snapshot files and atomically swap
//
// Each query enumerates the view's representation directly on the
// request's own handler goroutine. Reload is hot: the per-view registry is
// swapped atomically, requests in flight keep streaming from the
// representation they started on, and a retired entry is let go only
// after its last stream finishes. Shutdown cancels every request context,
// and the stream loop stops at its next tuple.
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/relation"
)

// Options configures a Handler.
type Options struct {
	// MaxBodyBytes caps a query request body; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// FlushBatch is the steady-state tuples-per-flush of result streams in
	// both formats; <= 0 means defaultFlushBatch. The first tuple of every
	// stream is always flushed alone, so batching never defers
	// first-answer delay.
	FlushBatch int
	// Mmap loads snapshots through the mmap path (cqrep.LoadMmap):
	// startup is O(file-open) per snapshot and each view — each shard,
	// for sharded snapshots — decodes on first touch. Payload-level
	// corruption then surfaces on a view's first query instead of at load
	// time.
	Mmap bool
	// Admin exposes the registry-mutation endpoints (POST /v1/attach,
	// POST /v1/detach) that a coordinator drives to ship shards onto a
	// worker. They load arbitrary local files and fetch arbitrary URLs, so
	// they are opt-in: only worker processes behind a trusted coordinator
	// should enable them.
	Admin bool
	// SpoolDir is where /v1/attach materializes snapshot bytes fetched
	// from a source URL; empty means the OS temp directory.
	SpoolDir string
	// ReadyGate, when non-nil, gates /readyz beyond the per-view decode
	// checks — a worker reports unready until it has joined its
	// coordinator, whatever its registry holds.
	ReadyGate func() bool
	// WALDir, when non-empty, arms durable-update recovery (wal.go): each
	// snapshot load replays <registry-name>.wal from this directory on top
	// of the loaded representation, persists the recovered state back over
	// the snapshot file, and compacts the log. A missing or empty log is a
	// no-op; a log that cannot be replayed fails the load.
	WALDir string
	// CacheBytes bounds the hot-binding result cache (cache.go): encoded
	// result streams for repeated (view, generation, binding, format)
	// keys are replayed from memory under this byte budget with LRU
	// eviction. <= 0 disables caching. Reload/attach/detach bump the
	// registry generation, which invalidates every cached frame from the
	// previous generation without an explicit flush.
	CacheBytes int64
}

// SnapshotSpec names one registry entry: the snapshot file to load and the
// key it serves under. An empty Name means the view name stored in the
// snapshot — the common case; an explicit Name lets one process serve
// several shards of the same view apart (the coordinator attaches shard i
// of view V as "V@i", each a self-contained per-shard snapshot whose
// stored view name is still V).
type SnapshotSpec struct {
	Name string
	Path string
}

// Handler serves a registry of snapshot-loaded representations over HTTP.
// It implements http.Handler; create one with New and Close it when done.
type Handler struct {
	opts  Options
	mux   *http.ServeMux
	front *Front // the shared query path and its counters (query.go)

	// specs is the registry recipe: Reload re-reads it, Attach/Detach
	// mutate it. Guarded by reloadMu.
	specs []SnapshotSpec

	// reg is the current registry; queries load it once and hold a
	// reference on their entry for their whole stream, so a concurrent
	// reload can swap the registry without tearing anyone's view.
	reg atomic.Pointer[registry]
	// cache replays encoded result streams for repeated bindings; nil
	// when Options.CacheBytes is unset. Entries are keyed by registry
	// generation, so swaps invalidate by construction (cache.go).
	cache     *ResultCache
	reloadMu  sync.Mutex // serializes Reload/Close swaps
	reloads   atomic.Uint64
	closed    atomic.Bool
	closeOnce sync.Once
	closeDone chan struct{}  // closed once every entry has drained
	retired   sync.WaitGroup // background retire goroutines
}

// registry is one immutable generation of the view table; Reload builds a
// fresh one and swaps the pointer.
type registry struct {
	gen   uint64
	views map[string]*viewEntry
	names []string // sorted view names, for /v1/views determinism
}

// viewEntry is one served view: its representation and the in-flight
// reference gate that keeps a retired entry alive until the last stream
// started on it finishes.
type viewEntry struct {
	name string
	path string
	rep  *core.Representation
	// src answers the entry's queries; it is rep itself, held as the
	// interface so tests can put a failing source in its place.
	src      core.QuerySource
	loadedAt time.Time

	mu      sync.Mutex
	refs    int
	retired bool
	idle    chan struct{} // closed when retired with no refs left

	counters viewCounters
	baseTup  func() int // lazy: materializes mmap-loaded representations
	wal      walStatus  // recovery outcome when Options.WALDir is set
}

// acquire takes a reference on the entry; it fails once the entry has
// been retired by a reload or shutdown (the caller then retries on the
// fresh registry).
func (e *viewEntry) acquire() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.retired {
		return false
	}
	e.refs++
	return true
}

// release drops a reference; the last release after retirement unblocks
// the retirer.
func (e *viewEntry) release() {
	e.mu.Lock()
	e.refs--
	last := e.retired && e.refs == 0
	e.mu.Unlock()
	if last {
		close(e.idle)
	}
}

// retire marks the entry dead and waits for in-flight streams to finish.
// Requests in flight keep streaming from the old representation; new
// requests fail acquire and route to the replacement.
func (e *viewEntry) retire() {
	e.mu.Lock()
	e.retired = true
	idleNow := e.refs == 0
	e.mu.Unlock()
	if idleNow {
		close(e.idle)
	}
	<-e.idle
}

// New loads every snapshot path into a per-view registry and returns the
// handler. Each snapshot contributes one view, keyed by its view name;
// duplicate names across files are an error. The paths are remembered:
// POST /v1/reload (and Reload) re-reads them.
func New(paths []string, opts Options) (*Handler, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("httpserve: no snapshot paths")
	}
	specs := make([]SnapshotSpec, len(paths))
	for i, p := range paths {
		specs[i] = SnapshotSpec{Path: p}
	}
	return NewSpecs(specs, opts)
}

// NewSpecs is New with explicit registry keys, and it accepts an empty
// spec list: a worker process starts with no views and gains them through
// Attach as its coordinator assigns shards.
func NewSpecs(specs []SnapshotSpec, opts Options) (*Handler, error) {
	h := &Handler{opts: opts, specs: append([]SnapshotSpec(nil), specs...), closeDone: make(chan struct{})}
	h.cache = NewResultCache(opts.CacheBytes) // nil when caching is off
	h.front = NewFront(h.resolve, http.StatusInternalServerError, opts.MaxBodyBytes, opts.FlushBatch, h.cache)
	reg, err := h.loadRegistry(1)
	if err != nil {
		return nil, err
	}
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query/{view}", h.front.ServeQuery)
	mux.HandleFunc("GET /v1/views", h.handleViews)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	mux.HandleFunc("POST /v1/reload", h.handleReload)
	mux.HandleFunc("GET /healthz", HandleHealth)
	mux.HandleFunc("GET /readyz", h.handleReady)
	if opts.Admin {
		mux.HandleFunc("POST /v1/attach", h.handleAttach)
		mux.HandleFunc("POST /v1/detach", h.handleDetach)
	}
	h.mux = mux
	return h, nil
}

// loadRegistry reads every snapshot spec into a fresh registry generation.
func (h *Handler) loadRegistry(gen uint64) (*registry, error) {
	reg := &registry{gen: gen, views: make(map[string]*viewEntry, len(h.specs))}
	for i, spec := range h.specs {
		entry, err := h.loadEntry(spec)
		if err != nil {
			return nil, err
		}
		// Resolve path-only specs to their registry key, so Attach/Detach
		// can match them by name from here on.
		h.specs[i].Name = entry.name
		if _, dup := reg.views[entry.name]; dup {
			return nil, fmt.Errorf("httpserve: duplicate view %q (snapshot %s)", entry.name, spec.Path)
		}
		reg.views[entry.name] = entry
		reg.names = append(reg.names, entry.name)
	}
	sort.Strings(reg.names)
	return reg, nil
}

// loadEntry loads one snapshot spec into a servable view entry.
func (h *Handler) loadEntry(spec SnapshotSpec) (*viewEntry, error) {
	rep, err := loadSnapshot(spec.Path, h.opts.Mmap)
	if err != nil {
		return nil, fmt.Errorf("httpserve: %s: %w", spec.Path, err)
	}
	name := spec.Name
	if name == "" {
		name = rep.View().Name
	}
	var wst walStatus
	if h.opts.WALDir != "" {
		// Recovery before serving: the log holds churn a writer already
		// acknowledged as durable, so the registry must reflect it.
		rep, wst, err = recoverWAL(rep, walPathFor(h.opts.WALDir, name), spec.Path)
		if err != nil {
			return nil, fmt.Errorf("httpserve: %s: %w", spec.Path, err)
		}
	}
	return &viewEntry{
		name:     name,
		path:     spec.Path,
		rep:      rep,
		src:      rep,
		loadedAt: time.Now(),
		idle:     make(chan struct{}),
		// Deferred: counting base tuples materializes the
		// representation, which an mmap load must not do at startup.
		baseTup: sync.OnceValue(func() int { return baseTuples(rep) }),
		wal:     wst,
	}, nil
}

// Attach loads the snapshot at path and serves it under name, atomically
// swapping in a registry generation that includes it. An existing entry
// under the same name is replaced with the /v1/reload retire discipline:
// streams in flight on the old entry finish on it, new requests land on
// the replacement. The spec is remembered, so a later Reload re-reads the
// attached file along with everything else.
func (h *Handler) Attach(name, path string) error {
	if name == "" {
		return fmt.Errorf("httpserve: attach needs a registry name")
	}
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return core.ErrClosed
	}
	entry, err := h.loadEntry(SnapshotSpec{Name: name, Path: path})
	if err != nil {
		return err
	}
	old := h.reg.Load()
	reg := &registry{gen: old.gen + 1, views: make(map[string]*viewEntry, len(old.views)+1)}
	var replaced *viewEntry
	for n, e := range old.views {
		if n == name {
			replaced = e
			continue
		}
		reg.views[n] = e
		reg.names = append(reg.names, n)
	}
	reg.views[name] = entry
	reg.names = append(reg.names, name)
	sort.Strings(reg.names)
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	kept := h.specs[:0]
	for _, s := range h.specs {
		if s.Name != name {
			kept = append(kept, s)
		}
	}
	h.specs = append(kept, SnapshotSpec{Name: name, Path: path})
	if replaced != nil {
		h.retired.Add(1)
		go func() {
			defer h.retired.Done()
			replaced.retire()
		}()
	}
	return nil
}

// Detach removes the named entry from the registry (and from the reload
// spec list). In-flight streams on it finish on the detached entry.
func (h *Handler) Detach(name string) error {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return core.ErrClosed
	}
	old := h.reg.Load()
	gone, ok := old.views[name]
	if !ok {
		return fmt.Errorf("httpserve: view %q is not served", name)
	}
	reg := &registry{gen: old.gen + 1, views: make(map[string]*viewEntry, len(old.views)-1)}
	for n, e := range old.views {
		if n == name {
			continue
		}
		reg.views[n] = e
		reg.names = append(reg.names, n)
	}
	sort.Strings(reg.names)
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}

	kept := h.specs[:0]
	for _, s := range h.specs {
		if s.Name != name {
			kept = append(kept, s)
		}
	}
	h.specs = kept
	h.retired.Add(1)
	go func() {
		defer h.retired.Done()
		gone.retire()
	}()
	return nil
}

// baseTuples counts the base-relation tuples behind a representation,
// deduplicating self-join aliases of the same relation. An mmap-loaded
// representation that fails to decode has no instance and counts zero.
func baseTuples(rep *core.Representation) int {
	inst := rep.Instance()
	if inst == nil {
		return 0
	}
	seen := map[string]bool{}
	n := 0
	for _, a := range inst.Atoms {
		if name := a.Rel.Name(); !seen[name] {
			seen[name] = true
			n += a.Rel.Len()
		}
	}
	return n
}

// CacheStats snapshots the result-cache counters; ok is false when
// caching is off. The bench recorder reads hit rates through this instead
// of re-parsing its own /v1/stats JSON.
func (h *Handler) CacheStats() (CacheStats, bool) {
	if h.cache == nil {
		return CacheStats{}, false
	}
	return h.cache.Stats(), true
}

// Reload re-reads every snapshot path and atomically swaps the registry.
// On any load failure the old registry stays in place untouched. Requests
// in flight finish on the representation they started with; the old
// entries retire in the background once their last stream ends.
func (h *Handler) Reload() (uint64, error) {
	h.reloadMu.Lock()
	defer h.reloadMu.Unlock()
	if h.closed.Load() {
		return 0, core.ErrClosed
	}
	old := h.reg.Load()
	reg, err := h.loadRegistry(old.gen + 1)
	if err != nil {
		return 0, err
	}
	h.reg.Store(reg)
	if h.cache != nil {
		h.cache.SetGeneration(reg.gen)
	}
	h.reloads.Add(1)
	h.retired.Add(1)
	go func() {
		defer h.retired.Done()
		for _, e := range old.views {
			e.retire()
		}
	}()
	return reg.gen, nil
}

// Close retires the handler: new requests fail with 503 and in-flight
// streams finish (or are cut by their own request contexts). Close blocks
// until every entry has drained and is idempotent — concurrent and
// repeated calls all wait for the full drain, not just the first one.
func (h *Handler) Close() {
	h.closeOnce.Do(func() {
		defer close(h.closeDone)
		h.reloadMu.Lock()
		h.closed.Store(true)
		old := h.reg.Swap(nil)
		h.reloadMu.Unlock()
		if old != nil {
			for _, e := range old.views {
				e.retire()
			}
		}
		h.retired.Wait()
	})
	<-h.closeDone
}

// ServeHTTP dispatches the wire API.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// resolve is the node's half of the shared query path (query.go): it
// maps a view name onto its registry entry and takes a reference on it. A
// retired entry (reload/close raced our registry load) answers
// core.ErrClosed, and the shared path resolves again on the fresh
// registry, so the request lands wholly on one generation.
func (h *Handler) resolve(name string, req QueryRequest) (Query, error) {
	reg := h.reg.Load()
	if reg == nil {
		return Query{}, StatusErrorf(http.StatusServiceUnavailable, "server is shutting down")
	}
	entry, ok := reg.views[name]
	if !ok {
		return Query{}, StatusErrorf(http.StatusNotFound, "unknown view %q (GET /v1/views lists the registry)", name)
	}
	if !entry.acquire() {
		return Query{}, core.ErrClosed
	}
	vb, err := entry.rep.Bind(req.Bindings)
	if err != nil {
		entry.release()
		return Query{}, err
	}
	return Query{
		Source:   entrySource{entry: entry, vb: vb},
		counters: &entry.counters,
		View:     entry.name,
		Bound:    vb,
		Gen:      reg.gen,
		Arity:    len(entry.rep.FreeNames()),
	}, nil
}

// entrySource enumerates one bound valuation straight from a registry
// entry's representation, holding the entry's reference until Release.
// The stream loop checks the request context between tuples.
type entrySource struct {
	entry *viewEntry
	vb    relation.Tuple
}

func (s entrySource) Open(context.Context) (core.Iterator, error) {
	return s.entry.src.Query(s.vb), nil
}

func (s entrySource) Release() { s.entry.release() }

// ViewInfo is one /v1/views registry row. EnumOrder is the declared
// enumeration order as free-variable positions, most significant first —
// the coordinator merges scattered per-shard streams under exactly this
// order, so it is part of the registry contract, not an internal detail.
type ViewInfo struct {
	Name       string   `json:"name"`
	Bound      []string `json:"bound"`
	Free       []string `json:"free"`
	EnumOrder  []int    `json:"enum_order"`
	Strategy   string   `json:"strategy"`
	Shards     int      `json:"shards"`
	Entries    int      `json:"entries"`
	BaseTuples int      `json:"base_tuples"`
	Snapshot   string   `json:"snapshot"`
	LoadedAt   string   `json:"loaded_at"`
}

// viewsResponse is the /v1/views body.
type viewsResponse struct {
	Generation uint64     `json:"generation"`
	Views      []ViewInfo `json:"views"`
}

func (h *Handler) handleViews(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.front.ErrorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	resp := viewsResponse{Generation: reg.gen}
	for _, name := range reg.names {
		e := reg.views[name]
		st := e.rep.Stats()
		resp.Views = append(resp.Views, ViewInfo{
			Name:       e.name,
			Bound:      e.rep.BoundNames(),
			Free:       e.rep.FreeNames(),
			EnumOrder:  e.rep.EnumOrder(),
			Strategy:   st.Strategy.String(),
			Shards:     st.Shards,
			Entries:    st.Entries,
			BaseTuples: e.baseTup(),
			Snapshot:   e.path,
			LoadedAt:   e.loadedAt.UTC().Format(time.RFC3339),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// LatencySummary reports an approximate latency distribution (power-of-two
// microsecond buckets; quantiles are bucket upper bounds).
type LatencySummary struct {
	Count uint64 `json:"count"`
	P50us int64  `json:"p50_us"`
	P99us int64  `json:"p99_us"`
}

// ViewStats is one per-view /v1/stats row. The streams_* counters split
// how streams on this view ended: complete (clean terminal, including
// limit-truncated), errored (terminal error delivered per the IterErr
// contract), aborted (client gone or shutdown mid-stream — no clean
// terminal, so it must not be mistaken for a served request).
type ViewStats struct {
	Name            string `json:"name"`
	Requests        uint64 `json:"requests"`
	Tuples          uint64 `json:"tuples"`
	StreamsComplete uint64 `json:"streams_complete"`
	StreamsErrored  uint64 `json:"streams_errored"`
	StreamsAborted  uint64 `json:"streams_aborted"`
	Entries         int    `json:"entries"`
	Shards          int    `json:"shards"`
	BaseTuples      int    `json:"base_tuples"`
	// Cache is this view's slice of the result-cache counters; nil (and
	// omitted from the JSON) when caching is off.
	Cache *ViewCacheStats `json:"cache,omitempty"`
	// WALReplayed counts update-log entries replayed into this view at
	// load (Options.WALDir); WALError carries a compaction failure — the
	// recovered state is served either way, the log just was not
	// truncated. Both are omitted when WAL recovery is off.
	WALReplayed int    `json:"wal_replayed,omitempty"`
	WALError    string `json:"wal_error,omitempty"`
}

// statsResponse is the /v1/stats body.
type statsResponse struct {
	QueryStats
	Generation uint64 `json:"generation"`
	Reloads    uint64 `json:"reloads"`
	// Cache is the result-cache block; nil (omitted) when caching is off.
	Cache *CacheStats `json:"cache,omitempty"`
	Views []ViewStats `json:"views"`
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.front.ErrorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	resp := statsResponse{QueryStats: h.front.Stats(), Generation: reg.gen, Reloads: h.reloads.Load()}
	if h.cache != nil {
		cs := h.cache.Stats()
		resp.Cache = &cs
	}
	for _, name := range reg.names {
		e := reg.views[name]
		st := e.rep.Stats()
		row := ViewStats{
			Name:            e.name,
			Requests:        e.counters.requests.Load(),
			Tuples:          e.counters.tuples.Load(),
			StreamsComplete: e.counters.streams[streamComplete].Load(),
			StreamsErrored:  e.counters.streams[streamErrored].Load(),
			StreamsAborted:  e.counters.streams[streamAborted].Load(),
			Entries:         st.Entries,
			Shards:          st.Shards,
			BaseTuples:      e.baseTup(),
		}
		if h.cache != nil {
			vc := h.cache.ViewStats(e.name)
			row.Cache = &vc
		}
		row.WALReplayed = e.wal.replayed
		if e.wal.compactErr != nil {
			row.WALError = e.wal.compactErr.Error()
		}
		resp.Views = append(resp.Views, row)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleReady is serving readiness: every registered view must be loaded
// AND decodable. For mmap-loaded snapshots that means forcing the lazy
// decode (Ensure), so a readiness probe doubles as a warmup — payload
// corruption surfaces here instead of on the first real query. An
// Options.ReadyGate (worker join state, coordinator shard-map coverage)
// can hold readiness back beyond the registry checks.
func (h *Handler) handleReady(w http.ResponseWriter, r *http.Request) {
	reg := h.reg.Load()
	if reg == nil {
		h.front.ErrorJSON(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if h.opts.ReadyGate != nil && !h.opts.ReadyGate() {
		h.front.ErrorJSON(w, http.StatusServiceUnavailable, "not ready: gate closed")
		return
	}
	walReplayed := 0
	for _, name := range reg.names {
		if err := reg.views[name].rep.Ensure(); err != nil {
			h.front.ErrorJSON(w, http.StatusServiceUnavailable, "view %q not decodable: %v", name, err)
			return
		}
		walReplayed += reg.views[name].wal.replayed
	}
	body := map[string]any{"ready": true, "views": len(reg.names), "generation": reg.gen}
	if h.opts.WALDir != "" {
		// A ready answer with WAL recovery armed means: every log was
		// replayed and the registry already reflects the recovered churn.
		body["wal_replayed"] = walReplayed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// attachRequest is the POST /v1/attach body: serve the snapshot from
// Source under Name. Source is either a local file path or an http(s) URL
// (the coordinator's shardfile endpoint) that is fetched into SpoolDir
// first — the join-by-snapshot protocol of DESIGN.md §6.
type attachRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

func (h *Handler) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req attachRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil || req.Name == "" || req.Source == "" {
		h.front.ErrorJSON(w, http.StatusBadRequest, "attach wants {\"name\":..., \"source\": path-or-url}")
		return
	}
	path := req.Source
	if isHTTPURL(req.Source) {
		path, err = h.spoolFetch(r.Context(), req.Name, req.Source)
		if err != nil {
			h.front.ErrorJSON(w, http.StatusBadGateway, "fetch %s: %v", req.Source, err)
			return
		}
	}
	if err := h.Attach(req.Name, path); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.front.ErrorJSON(w, status, "attach %q: %v", req.Name, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"attached": req.Name})
}

func (h *Handler) handleDetach(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil || req.Name == "" {
		h.front.ErrorJSON(w, http.StatusBadRequest, "detach wants {\"name\": ...}")
		return
	}
	if err := h.Detach(req.Name); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.front.ErrorJSON(w, status, "detach %q: %v", req.Name, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"detached": req.Name})
}

// isHTTPURL reports whether source names a fetchable URL rather than a
// local path.
func isHTTPURL(source string) bool {
	return strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")
}

// spoolFetch downloads a snapshot into the spool directory and returns the
// local path. The name only seeds the temp-file prefix (sanitized), so a
// hostile name cannot escape the spool dir.
func (h *Handler) spoolFetch(ctx context.Context, name, url string) (string, error) {
	dir := h.opts.SpoolDir
	if dir == "" {
		dir = os.TempDir()
	} else if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %s", resp.Status)
	}
	safe := make([]byte, 0, len(name))
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	f, err := os.CreateTemp(dir, "cqrep-"+string(safe)+"-*.snap")
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

func (h *Handler) handleReload(w http.ResponseWriter, r *http.Request) {
	gen, err := h.Reload()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		h.front.ErrorJSON(w, status, "reload failed, previous registry still serving: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": gen})
}

// loadSnapshot reads one snapshot file through the core decoder — eagerly,
// or as a lazily-decoded mapping when mmap is set.
func loadSnapshot(path string, mmap bool) (*core.Representation, error) {
	if mmap {
		return core.OpenRepresentationMmap(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadRepresentation(f)
}

// LatencyHist is a lock-free latency histogram over power-of-two
// microsecond buckets — coarse, but constant-time on the request path and
// good enough for the p50/p99 health signal of /v1/stats. Exported so the
// coordinator can keep per-worker breakdowns with the same shape.
type LatencyHist struct {
	buckets [48]atomic.Uint64
}

// Add records one observation.
func (h *LatencyHist) Add(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us)) // bucket k holds [2^(k-1), 2^k) µs
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx].Add(1)
}

// Summary renders count and approximate p50/p99 (bucket upper bounds).
func (h *LatencyHist) Summary() LatencySummary {
	var counts [48]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	out := LatencySummary{Count: total}
	if total == 0 {
		return out
	}
	out.P50us = h.quantile(counts[:], total, 0.50)
	out.P99us = h.quantile(counts[:], total, 0.99)
	return out
}

func (h *LatencyHist) quantile(counts []uint64, total uint64, q float64) int64 {
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return int64(1) << i // upper bound of bucket i
		}
	}
	return int64(1) << (len(counts) - 1)
}
