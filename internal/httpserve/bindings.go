package httpserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"cqrep/internal/relation"
)

// bindings.go parses the query-request body of POST /v1/query/{view} (the
// wire format is specified in DESIGN.md §5). The canonical shape is
//
//	{"bindings": {"x": 1, "z": 3}, "limit": 100}
//
// where "bindings" maps bound-variable names to int64 values (the view's
// value domain) and "limit" optionally caps the number of streamed tuples
// (0 or absent = unlimited). An empty body or empty object is a valid
// request with no bindings, for views whose head variables are all free.
//
// The parser is adversarial-input hardened (it is a fuzz target): it never
// panics, allocates no more than the input it was handed, and rejects
// unknown fields, non-integer values, values outside int64, and trailing
// garbage after the request object. Duplicate keys follow encoding/json's
// last-value-wins semantics — Go's decoder offers no rejection hook.

// maxBindings bounds the binding map an attacker can make us build; no
// real view has anywhere near this many bound variables.
const maxBindings = 4096

// QueryRequest is the decoded body of POST /v1/query/{view}, exported for
// the Resolver a front hands to the shared query path: the coordinator
// (internal/coord) fans the same request out to its workers.
type QueryRequest struct {
	Bindings map[string]relation.Value
	Limit    int // 0 = unlimited
}

// rawQueryRequest is the strict JSON shape; numbers are kept as
// json.Number so integer values survive beyond float64 precision and
// fractional values are rejected instead of truncated.
type rawQueryRequest struct {
	Bindings map[string]json.Number `json:"bindings"`
	Limit    *json.Number           `json:"limit"`
}

// ParseBindings parses a query-request body. It accepts an empty body as
// a request with no bindings and no limit.
func ParseBindings(data []byte) (QueryRequest, error) {
	req := QueryRequest{}
	if len(bytes.TrimSpace(data)) == 0 {
		return req, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var raw rawQueryRequest
	if err := dec.Decode(&raw); err != nil {
		return req, fmt.Errorf("invalid query request: %w", err)
	}
	// One JSON value per body: trailing garbage means a malformed or
	// misframed request, not extra requests to silently ignore.
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return req, fmt.Errorf("invalid query request: trailing data after request object")
	}
	if len(raw.Bindings) > maxBindings {
		return req, fmt.Errorf("invalid query request: %d bindings exceeds the limit of %d", len(raw.Bindings), maxBindings)
	}
	if len(raw.Bindings) > 0 {
		req.Bindings = make(map[string]relation.Value, len(raw.Bindings))
		for name, num := range raw.Bindings {
			v, err := parseValue(num)
			if err != nil {
				return QueryRequest{}, fmt.Errorf("invalid query request: binding %q: %w", name, err)
			}
			req.Bindings[name] = v
		}
	}
	if raw.Limit != nil {
		// The upper bound keeps the value inside int on every platform
		// (32-bit included), so the int conversion below cannot truncate
		// or wrap a validated limit.
		n, err := strconv.ParseInt(raw.Limit.String(), 10, 64)
		if err != nil || n < 0 || n > 1<<31-1 {
			return QueryRequest{}, fmt.Errorf("invalid query request: limit %q is not a non-negative integer below 2^31", raw.Limit.String())
		}
		req.Limit = int(n)
	}
	return req, nil
}

// parseValue converts a JSON number to a Value, rejecting fractions,
// exponents, and out-of-range magnitudes instead of rounding them.
func parseValue(num json.Number) (relation.Value, error) {
	v, err := strconv.ParseInt(num.String(), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("value %q is not an int64", num.String())
	}
	return relation.Value(v), nil
}
