package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cqrep"
	"cqrep/internal/core"
	"cqrep/internal/httpserve"
	"cqrep/internal/relation"
	"cqrep/internal/workload"
)

const (
	// churnBatch is how many updates the writer applies before each Flush.
	churnBatch = 32
	// churnSteps is the generated script length; a run applies a prefix.
	churnSteps = 60000
	// churnFraction is the staleness budget. It is far above one batch, so
	// no background rebuild starts between Flushes and every batch is
	// applied by exactly one Flush.
	churnFraction = 0.5
)

// churnFixture is churn's generated inputs: the co-author view over a
// small co-author database, a reader request stream and an update script.
type churnFixture struct {
	db      *relation.Database
	readers []relation.Tuple
	script  []workload.ChurnOp
}

func newChurnFixture(seed int64) (*churnFixture, error) {
	db := churnDB(seed)
	script, err := workload.ChurnScript(seed^churnSalt, db, []string{"R"}, churnAuthors, churnSteps)
	if err != nil {
		return nil, err
	}
	return &churnFixture{db: db, readers: uniformStream(seed, churnAuthors, streamLen), script: script}, nil
}

func churnDB(seed int64) *relation.Database {
	return workload.CoauthorDB(seed, churnAuthors, churnPapers, churnEntries)
}

// servingFixture is churn's view and readers as a read fixture, which the
// traced run serves over HTTP for the per-layer metrics.
func (cf *churnFixture) servingFixture(seed int64) *fixture {
	return &fixture{
		name:    "churn",
		view:    workload.CoauthorView(),
		db:      churnDB(seed),
		regen:   func() *relation.Database { return churnDB(seed) },
		opts:    []core.Option{core.WithStrategy(core.MaterializedStrategy)},
		format:  httpserve.FormatBinary,
		stream:  cf.readers,
		sampled: 200,
	}
}

// live is a set-up churn stack: a Maintained resumed from a saved and
// reloaded snapshot, with its update log attached.
type live struct {
	m        *cqrep.Maintained
	snapshot string // the initial snapshot, which the log replays onto
	log      string
	space    int
}

// setupChurn compiles, saves, loads, resumes and attaches the log.
func setupChurn(cf *churnFixture, dir string, tr *tracer) (*live, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lv := &live{snapshot: filepath.Join(dir, "churn.cqs"), log: filepath.Join(dir, "churn.wal")}
	o := tr.begin("setup.compile", 0, 0)
	rep, err := cqrep.Compile(context.Background(), workload.CoauthorView(), cf.db, cqrep.WithStrategy(cqrep.MaterializedStrategy))
	tr.end(o)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	o = tr.begin("setup.snapshot_write", 0, 0)
	err = rep.Save(lv.snapshot)
	tr.end(o)
	if err != nil {
		return nil, err
	}
	o = tr.begin("setup.serve", 0, 0)
	defer tr.end(o)
	m, err := resume(lv.snapshot)
	if err != nil {
		return nil, err
	}
	// An empty snapshot path keeps the log append-only, so the final gate
	// can replay all of it onto the initial snapshot.
	if _, err := m.AttachWAL(lv.log, ""); err != nil {
		m.Close()
		return nil, err
	}
	lv.m = m
	lv.space = m.Snapshot().Stats().Bytes
	return lv, nil
}

func resume(snapshot string) (*cqrep.Maintained, error) {
	rep, err := cqrep.Load(snapshot)
	if err != nil {
		return nil, err
	}
	return cqrep.ResumeMaintained(rep, churnFraction, cqrep.WithStrategy(cqrep.MaterializedStrategy))
}

// writeStats is what the writer measured.
type writeStats struct {
	batches, failed int
	flushMS         []float64 // one per batch: updates plus Flush
	end             int       // script position after the last batch
	wall            time.Duration
}

// churnLoop runs the writer and the reader side by side for d: the
// writer applies script batches from position from, each followed by
// Flush; the reader is one closed-loop client in process. A reader
// request fails only on a stream error: its expected answer depends on
// which snapshot it read, so the final gate proves the contents.
func churnLoop(m *cqrep.Maintained, cf *churnFixture, from int, d time.Duration, tr *tracer) (loopStats, writeStats) {
	var rs loopStats
	ws := writeStats{end: from}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) && ws.end+churnBatch <= len(cf.script) {
			o := tr.begin("maintained.batch", 0, 0)
			t0 := time.Now()
			failed := false
			for _, op := range cf.script[ws.end : ws.end+churnBatch] {
				var err error
				if op.Del {
					err = m.Delete(op.Rel, op.Tuple)
				} else {
					err = m.Insert(op.Rel, op.Tuple)
				}
				failed = failed || err != nil
			}
			f := tr.begin("maintained.flush", o.id, 0)
			failed = failed || m.Flush() != nil
			tr.end(f)
			ws.flushMS = append(ws.flushMS, ms(time.Since(t0)))
			tr.end(o)
			ws.batches++
			ws.end += churnBatch
			if failed {
				ws.failed++
			}
		}
		ws.wall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			vb := cf.readers[i%len(cf.readers)]
			o := tr.begin("maintained.query", 0, 0)
			rs.record(queryMaintained(m, vb), -1, time.Since(start))
			tr.end(o)
		}
	}()
	wg.Wait()
	rs.wall = time.Since(start)
	return rs, ws
}

// queryMaintained drains one in-process request against the current
// snapshot.
func queryMaintained(m *cqrep.Maintained, vb relation.Tuple) outcome {
	var o outcome
	start := time.Now()
	it, err := m.Query(vb)
	if err != nil {
		o.err = err
		return o
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		if o.tuples == 0 {
			o.first = time.Since(start)
		}
		o.tuples++
	}
	o.err = cqrep.IterErr(it)
	o.lat = time.Since(start)
	return o
}

// gateChurnReads checks a seeded sample of reader bindings against an
// independent DirectStrategy compile before timing.
func gateChurnReads(m *cqrep.Maintained, cf *churnFixture, seed int64) error {
	direct, err := core.Build(workload.CoauthorView(), churnDB(seed), core.WithStrategy(core.DirectStrategy))
	if err != nil {
		return err
	}
	sample := distinct(cf.readers)
	if len(sample) > 200 {
		sample = sample[:200]
	}
	for _, vb := range sample {
		it, err := m.Query(vb)
		if err != nil {
			return err
		}
		got := cqrep.Drain(it)
		if err := cqrep.IterErr(it); err != nil {
			return err
		}
		if !sameSorted(got, core.Drain(direct.Query(vb))) {
			return fmt.Errorf("binding %v: maintained answers differ from DirectStrategy", vb)
		}
	}
	return nil
}

// gateChurnFinal proves the end state after the writer applied
// script[:applied]: the final snapshot enumerates every author exactly as
// a fresh compile of the final database does, and replaying the whole
// update log onto the initial snapshot reproduces it. It closes lv.m.
func gateChurnFinal(lv *live, cf *churnFixture, seed int64, applied int) error {
	final := lv.m.Snapshot()
	if err := lv.m.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	db := churnDB(seed)
	r, err := db.Relation("R")
	if err != nil {
		return err
	}
	for _, op := range cf.script[:applied] {
		if op.Del {
			r.Delete(op.Tuple)
		} else if err := r.Insert(op.Tuple); err != nil {
			return err
		}
	}
	fresh, err := cqrep.Compile(context.Background(), workload.CoauthorView(), db, cqrep.WithStrategy(cqrep.MaterializedStrategy))
	if err != nil {
		return err
	}
	if err := sameEnumeration(final, fresh); err != nil {
		return fmt.Errorf("final snapshot vs fresh compile: %w", err)
	}
	m, err := resume(lv.snapshot)
	if err != nil {
		return err
	}
	defer m.Close()
	n, err := m.AttachWAL(lv.log, "")
	if err != nil {
		return err
	}
	if n != applied {
		return fmt.Errorf("log replayed %d updates, the writer applied %d", n, applied)
	}
	if err := m.Flush(); err != nil {
		return err
	}
	if err := sameEnumeration(m.Snapshot(), final); err != nil {
		return fmt.Errorf("log replay vs final snapshot: %w", err)
	}
	return nil
}

// sameEnumeration compares two representations of the churn view author
// by author, in enumeration order.
func sameEnumeration(got, want *cqrep.Representation) error {
	for a := 0; a < churnAuthors; a++ {
		vb := relation.Tuple{relation.Value(a)}
		it := got.Query(vb)
		g := cqrep.Drain(it)
		if err := checkStream(g, cqrep.IterErr(it), cqrep.Drain(want.Query(vb))); err != nil {
			return fmt.Errorf("author %d: %w", a, err)
		}
	}
	return nil
}

// runChurn is churn's end-to-end run, or its traced run.
func runChurn(cfg config, r *report) error {
	if cfg.trace {
		cf, err := newChurnFixture(cfg.seed)
		if err != nil {
			return err
		}
		return runTraced(cfg, r, cf.servingFixture(cfg.seed), cf)
	}
	var setupS []float64
	var lv *live
	var cf *churnFixture
	defer func() {
		if lv != nil {
			lv.m.Close()
		}
	}()
	for k := 0; k < setups; k++ {
		if lv != nil {
			lv.m.Close()
			lv = nil
		}
		var err error
		if cf, err = newChurnFixture(cfg.seed); err != nil {
			return err
		}
		start := time.Now()
		l, err := setupChurn(cf, filepath.Join(cfg.tmp, fmt.Sprintf("setup%d", k)), nil)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		lv = l
	}
	heap := heapAfterGC()
	if err := gateChurnReads(lv.m, cf, cfg.seed); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	var rs loopStats
	var ws writeStats
	if err := timed(cfg, func() { rs, ws = churnLoop(lv.m, cf, 0, cfg.duration(), nil) }); err != nil {
		return err
	}
	r.count(rs.requests+ws.batches, rs.failed+ws.failed)
	reportLoop(r, rs, setupS, heap, float64(lv.space))
	r.addExtra("updates_per_s", float64(ws.batches*churnBatch)/ws.wall.Seconds(), "1/s")
	r.notef("writer: %d batches of %d, batch+Flush p50 %.3f ms, script position %d of %d",
		ws.batches, churnBatch, median(ws.flushMS), ws.end, len(cf.script))
	r.count(1, 0)
	err := gateChurnFinal(lv, cf, cfg.seed, ws.end)
	lv = nil
	if err != nil {
		r.count(0, 1)
		r.fail("final churn gate: %v", err)
	}
	return nil
}

// maintain measures the update path on a fixed prefix of the script,
// applied to a fresh Maintained resumed from churn's initial snapshot
// with its own log, so every count it records repeats exactly.
func (p *probe) maintain(cf *churnFixture) error {
	lv, err := setupChurn(cf, filepath.Join(p.cfg.tmp, "maintain"), nil)
	if err != nil {
		return err
	}
	defer lv.m.Close()
	size := func() (int64, error) {
		fi, err := os.Stat(lv.log)
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	size0, err := size()
	if err != nil {
		return err
	}
	var appendUS, flushMS []float64
	for b := 0; b < maintainBatches; b++ {
		o := p.tr.begin("maintained.batch", 0, 0)
		for _, op := range cf.script[b*churnBatch : (b+1)*churnBatch] {
			a := p.tr.begin("maintained.update", o.id, 0)
			start := time.Now()
			if op.Del {
				err = lv.m.Delete(op.Rel, op.Tuple)
			} else {
				err = lv.m.Insert(op.Rel, op.Tuple)
			}
			appendUS = append(appendUS, float64(time.Since(start))/1e3)
			p.tr.end(a)
			if err != nil {
				return fmt.Errorf("update: %w", err)
			}
		}
		f := p.tr.begin("maintained.flush", o.id, 0)
		start := time.Now()
		err = lv.m.Flush()
		flushMS = append(flushMS, ms(time.Since(start)))
		p.tr.end(f)
		p.tr.end(o)
		if err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	size1, err := size()
	if err != nil {
		return err
	}
	updates := float64(maintainBatches * churnBatch)
	rebuilds := float64(lv.m.Rebuilds())
	ratio := float64(lv.m.DeltaApplies()) / math.Max(rebuilds, 1)
	for _, m := range []struct {
		name  string
		v     float64
		unit  string
		exact bool
	}{
		{"wal.append_us", median(appendUS), "us", false},
		{"wal.bytes_per_update", float64(size1-size0) / updates, "B", true},
		{"core.maintain.flush_ms", median(flushMS), "ms", false},
		{"core.maintain.delta_ratio", ratio, "ratio", true},
		{"core.maintain.rebuilds", rebuilds, "count", true},
		{"core.maintain.noop_deletes", float64(lv.m.NoopDeletes()), "count", true},
	} {
		p.r.addExtra(m.name, m.v, m.unit)
		if m.exact {
			p.exact(m.name, m.v)
		}
	}
	return nil
}
