package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqrep/internal/core"
	"cqrep/internal/cq"
	"cqrep/internal/relation"
)

// fanoutAnswers is the answer count of binding x=1 in fanoutSnapshot: far
// more than one flush batch, so a stream that stops reading leaves most of
// its enumeration undone.
const fanoutAnswers = 5000

// fanoutSnapshot serves V[bf](x, y) :- R(x, y) where x=1 has fanoutAnswers
// answers.
func fanoutSnapshot(t *testing.T) (string, *core.Representation) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.NewRelation("R", 2)
	for y := 0; y < fanoutAnswers; y++ {
		r.MustInsert(1, relation.Value(y))
	}
	db.Add(r)
	return compileAndSave(t, t.TempDir(), "v.cqs", cq.MustParse("V[bf](x, y) :- R(x, y)"), db)
}

func fanoutRequest(format Format) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/v1/query/V", strings.NewReader(`{"bindings":{"x":1}}`))
	req.Header.Set("Accept", format.MediaType())
	return req
}

// decodeRecorded drains a recorded response body in format and returns the
// tuple count and the stream's terminal error.
func decodeRecorded(t *testing.T, format Format, body []byte) (int, error) {
	t.Helper()
	var s interface {
		Next() (relation.Tuple, bool)
		Err() error
	}
	if format == FormatBinary {
		dec, err := newBinaryReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		s = dec
	} else {
		s = &ndjsonStream{sc: bufio.NewScanner(bytes.NewReader(body))}
	}
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	return n, s.Err()
}

// stallOnFlush is a ResponseWriter whose first Flush blocks until release
// is closed: a client that sent its request and then stopped reading.
type stallOnFlush struct {
	*httptest.ResponseRecorder
	once    sync.Once
	flushed chan struct{} // closed when the first Flush starts blocking
	release <-chan struct{}
}

func (w *stallOnFlush) Flush() {
	w.once.Do(func() {
		close(w.flushed)
		<-w.release
	})
	w.ResponseRecorder.Flush()
}

// TestStalledReadersDoNotBlockView is the head-of-line regression test:
// GOMAXPROCS clients that stop reading mid-stream must not keep a fresh
// request on the same view from being served. Each stream enumerates on
// its own request goroutine, so a stalled one holds nothing another
// stream needs.
func TestStalledReadersDoNotBlockView(t *testing.T) {
	path, _ := fanoutSnapshot(t)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	stalled := runtime.GOMAXPROCS(0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { // before h.Close, which waits for these streams
		close(release)
		wg.Wait()
	}()
	for i := 0; i < stalled; i++ {
		w := &stallOnFlush{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{}), release: release}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(w, fanoutRequest(FormatNDJSON))
		}()
		<-w.flushed
	}

	fresh := httptest.NewRecorder()
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		h.ServeHTTP(fresh, fanoutRequest(FormatNDJSON))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("fresh request waited >5s behind %d stalled readers", stalled)
	}
	n, err := decodeRecorded(t, FormatNDJSON, fresh.Body.Bytes())
	if err != nil || n != fanoutAnswers {
		t.Fatalf("fresh request streamed %d tuples (err %v), want %d", n, err, fanoutAnswers)
	}
}

// countingSource serves a representation and counts every Next on the
// iterators it hands out.
type countingSource struct {
	rep   *core.Representation
	nexts atomic.Int64
}

func (s *countingSource) Query(vb relation.Tuple) core.Iterator {
	return &countingIter{inner: s.rep.Query(vb), nexts: &s.nexts}
}

type countingIter struct {
	inner core.Iterator
	nexts *atomic.Int64
}

func (it *countingIter) Next() (relation.Tuple, bool) {
	it.nexts.Add(1)
	return it.inner.Next()
}

// cancelOnFlush is a ResponseWriter that cancels its request's context on
// the first flush (the client disconnecting right after its first tuple)
// and records how many source Next calls had happened by then.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel   context.CancelFunc
	src      *countingSource
	atCancel int64 // -1 until the first flush
}

func (w *cancelOnFlush) Flush() {
	if w.atCancel < 0 {
		w.atCancel = w.src.nexts.Load()
		w.cancel()
	}
	w.ResponseRecorder.Flush()
}

// TestCancelMidStreamStopsSource: a request context cancelled mid-stream
// ends the stream with the format's terminal error, counts it aborted, and
// stops pulling from the source at once; the stream loop, not the source,
// watches the context.
func TestCancelMidStreamStopsSource(t *testing.T) {
	path, rep := fanoutSnapshot(t)
	h, err := New([]string{path}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, format := range []Format{FormatNDJSON, FormatBinary} {
		src := &countingSource{rep: rep}
		h.reg.Load().views["V"].src = src
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelOnFlush{ResponseRecorder: httptest.NewRecorder(), cancel: cancel, src: src, atCancel: -1}
		h.ServeHTTP(w, fanoutRequest(format).WithContext(ctx))
		cancel()
		if w.atCancel < 0 {
			t.Fatalf("%s: the stream never flushed", format)
		}
		if got := src.nexts.Load(); got != w.atCancel {
			t.Fatalf("%s: source Next called %d times, %d of them after the cancellation", format, got, got-w.atCancel)
		}
		n, err := decodeRecorded(t, format, w.Body.Bytes())
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Message, context.Canceled.Error()) {
			t.Fatalf("%s: terminal = %v after %d tuples, want the cancellation as the terminal error", format, err, n)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.StreamsAborted != 2 || stats.StreamsComplete != 0 || stats.StreamsErrored != 0 {
		t.Fatalf("streams complete/errored/aborted = %d/%d/%d, want 0/0/2", stats.StreamsComplete, stats.StreamsErrored, stats.StreamsAborted)
	}
	if row := stats.Views[0]; row.StreamsAborted != 2 {
		t.Fatalf("view row aborted = %d, want 2", row.StreamsAborted)
	}
}
