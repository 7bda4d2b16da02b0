package httpserve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"

	"cqrep/internal/relation"
)

// defaultFlushBatch is the steady-state tuples-per-flush when a front
// sets none: large enough to amortize the flush syscall, small enough that
// a mid-stream gap stays tiny.
const defaultFlushBatch = 128

// StreamWriter is the only result-stream encoder: it writes one result
// stream to an http.ResponseWriter in a negotiated Format. Both serving
// fronts stream through it (query.go), and perfbench drives it directly,
// so a stream relayed through the coordinator is byte-identical to one a
// node serves.
//
// Its delivery discipline is the same for both formats: the first tuple
// flushes alone (batching never defers first-answer delay), steady state
// flushes once per flushBatch tuples, and every stream ends with an
// explicit terminal — End, Error, or (NDJSON) clean EOF. Nothing is
// committed to the wire before the first flush, so a caller whose source
// fails before producing anything can still answer with a real error
// status instead.
type StreamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	bw      *bufio.Writer
	enc     *binaryWriter // binary only
	line    []byte        // ndjson scratch
	batch   int
	next    int // Wrote() at which the next flush happens (1-then-batch ramp)
	wrote   int
}

// NewStreamWriter stages a stream of the given format and arity;
// flushBatch <= 0 means defaultFlushBatch. Headers (Content-Type, the
// binary magic+arity) are buffered, not sent: the status line commits on
// the first flush.
func NewStreamWriter(w http.ResponseWriter, format Format, arity, flushBatch int) *StreamWriter {
	if flushBatch <= 0 {
		flushBatch = defaultFlushBatch
	}
	flusher, _ := w.(http.Flusher)
	sw := &StreamWriter{w: w, flusher: flusher, batch: flushBatch, next: 1}
	w.Header().Set("Content-Type", format.MediaType())
	if format == FormatBinary {
		sw.bw = bufio.NewWriterSize(w, 32*1024)
		sw.enc = newBinaryWriter(sw.bw)
		sw.enc.Header(arity)
	} else {
		sw.bw = bufio.NewWriterSize(w, 4096)
	}
	return sw
}

// Wrote reports how many tuples have been staged or sent. A caller seeing
// a source failure at Wrote()==0 still owns the status line and should
// answer with a real HTTP error instead of Error.
func (sw *StreamWriter) Wrote() int { return sw.wrote }

func (sw *StreamWriter) flush() error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
	}
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if sw.flusher != nil {
		sw.flusher.Flush()
	}
	return nil
}

// Tuple stages one tuple and flushes on the ramp; a non-nil error means
// the client is gone and the stream should be abandoned.
func (sw *StreamWriter) Tuple(t relation.Tuple) error {
	sw.wrote++
	if sw.enc != nil {
		sw.enc.Add(t)
	} else {
		sw.line = appendTupleJSON(sw.line[:0], t)
		if _, err := sw.bw.Write(sw.line); err != nil {
			return err
		}
	}
	if sw.wrote < sw.next {
		return nil
	}
	sw.next = sw.wrote + sw.batch
	return sw.flush()
}

// End terminates a complete stream: pending tuples, then the binary end
// frame (NDJSON completeness is the clean EOF). An error means the client
// did not receive the terminal.
func (sw *StreamWriter) End() error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
		if err := sw.enc.End(); err != nil {
			return err
		}
	}
	return sw.flush()
}

// Error terminates a failed stream with the terminal the format defines:
// the binary error frame or the NDJSON {"error": ...} object.
func (sw *StreamWriter) Error(msg string) error {
	if sw.enc != nil {
		if err := sw.enc.Flush(); err != nil {
			return err
		}
		if err := sw.enc.Error(msg); err != nil {
			return err
		}
		return sw.flush()
	}
	obj, _ := json.Marshal(map[string]string{"error": msg})
	sw.bw.Write(obj)
	sw.bw.WriteByte('\n')
	return sw.flush()
}

// appendTupleJSON renders one tuple as a compact JSON array of integers.
func appendTupleJSON(dst []byte, t relation.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']', '\n')
}
