package main

import (
	"math/rand"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

// Sizes and the one serving configuration every HTTP workload shares. The
// README gives the working-set bytes each implies.
const (
	// cacheBytes is the result-cache budget of every handler and of the
	// coordinator.
	cacheBytes = 256 << 10
	// clients is the closed-loop client count of the read workloads.
	clients = 2
	// streamLen is the length of every generated request stream. A run
	// walks the stream in order and wraps if it gets to the end.
	streamLen = 1 << 16
	// setups is how many times a run sets its workload up; setup_s is the
	// median.
	setups = 3

	scanAuthors, scanPapers, scanEntries = 1500, 3000, 30000
	triNodes, triEdges                   = 2000, 20000
	// triBudget is lookup's space budget (entries) for the Section-6
	// planner, which then builds the Theorem-1 structure.
	triBudget = 4 * triEdges
	// lookupGroup is how many edges share one Zipf rank in lookup.
	lookupGroup                             = 256
	churnAuthors, churnPapers, churnEntries = 400, 800, 6000
)

// Salts keep the request-stream generators independent of the database
// generators fed the same seed.
const (
	streamSalt = 0x5eed
	churnSalt  = 0xc4a7
)

// fixture is one read workload's generated inputs: the view, the
// database, how to compile and serve it, and the request stream.
type fixture struct {
	name    string
	view    *cq.View
	db      *relation.Database
	regen   func() *relation.Database // generates db afresh
	opts    []core.Option
	format  httpserve.Format
	stream  []relation.Tuple // bound valuations in request order
	budget  float64          // planner space budget in entries; 0 = none
	sampled int              // bindings checked against DirectStrategy; 0 = every distinct one
}

// scanFixture is the co-author view over a dense co-author database,
// compiled with Auto (the Theorem-2 decomposition), requested uniformly
// over authors in the binary encoding. shards > 1 makes it dist_scan.
func scanFixture(seed int64, shards int) *fixture {
	regen := func() *relation.Database { return workload.CoauthorDB(seed, scanAuthors, scanPapers, scanEntries) }
	fx := &fixture{
		name:    "scan",
		view:    workload.CoauthorView(),
		db:      regen(),
		regen:   regen,
		format:  httpserve.FormatBinary,
		stream:  uniformStream(seed, scanAuthors, streamLen),
		sampled: 200,
	}
	if shards > 1 {
		fx.name = "dist_scan"
		fx.opts = []core.Option{core.WithShards(shards)}
	}
	return fx
}

// lookupFixture is the mutual-friend triangle over a skewed graph,
// compiled to the Theorem-1 primitive under a space budget. Each request
// binds (x, z) to an edge R(z, x), in the NDJSON encoding. The edges are
// dealt at random into groups of lookupGroup; a request draws a group
// Zipf(1.1) and then an edge of it uniformly. Grouping keeps the hot head
// small enough to cache while averaging its answer sizes over several
// edges, so the head's tuple mass does not swing with the seed.
func lookupFixture(seed int64) *fixture {
	regen := func() *relation.Database { return workload.SkewedTriangleDB(seed, triNodes, triEdges) }
	db := regen()
	r, err := db.Relation("R")
	if err != nil {
		panic(err) // the generator always names its relation R
	}
	edges := r.Tuples()
	rng := rand.New(rand.NewSource(seed ^ streamSalt))
	perm := rng.Perm(len(edges))
	z := workload.NewZipf(len(edges)/lookupGroup, 1.1)
	stream := make([]relation.Tuple, streamLen)
	for i := range stream {
		e := edges[perm[z.Draw(rng)*lookupGroup+rng.Intn(lookupGroup)]]
		stream[i] = relation.Tuple{e[1], e[0]}
	}
	return &fixture{
		name:   "lookup",
		view:   cq.MustParse("V[bfb](x, y, z) :- R(x, y), R(y, z), R(z, x)"),
		db:     db,
		regen:  regen,
		opts:   []core.Option{core.WithSpaceBudget(triBudget)},
		format: httpserve.FormatNDJSON,
		stream: stream,
		budget: triBudget,
	}
}

// uniformStream draws n single-value bindings uniformly over [0, domain).
func uniformStream(seed int64, domain, n int) []relation.Tuple {
	rng := rand.New(rand.NewSource(seed ^ streamSalt))
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{relation.Value(rng.Intn(domain))}
	}
	return out
}

// distinct returns the distinct bindings of stream in first-occurrence
// order.
func distinct(stream []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(stream))
	var out []relation.Tuple
	for _, vb := range stream {
		k := string(vb.AppendEncode(nil))
		if !seen[k] {
			seen[k] = true
			out = append(out, vb)
		}
	}
	return out
}

// bindings turns a bound valuation into the named form a request carries.
func bindings(names []string, vb relation.Tuple) map[string]relation.Value {
	m := make(map[string]relation.Value, len(names))
	for i, n := range names {
		m[n] = vb[i]
	}
	return m
}
