package main

import (
	"errors"
	"testing"

	"cqrep/internal/relation"
)

func tuples(vals ...int) []relation.Tuple {
	out := make([]relation.Tuple, len(vals))
	for i, v := range vals {
		out[i] = relation.Tuple{relation.Value(v), relation.Value(v * 10)}
	}
	return out
}

func TestCheckStreamRejectsTruncatedReorderedAndFailed(t *testing.T) {
	want := tuples(1, 2, 3)
	if err := checkStream(tuples(1, 2, 3), nil, want); err != nil {
		t.Fatalf("exact stream rejected: %v", err)
	}
	for name, c := range map[string]struct {
		got []relation.Tuple
		err error
	}{
		"truncated":        {tuples(1, 2), nil},
		"extended":         {tuples(1, 2, 3, 4), nil},
		"reordered":        {tuples(1, 3, 2), nil},
		"substituted":      {tuples(1, 2, 4), nil},
		"terminal error":   {tuples(1, 2, 3), errors.New("stream cut")},
		"empty on failure": {nil, errors.New("refused")},
	} {
		if err := checkStream(c.got, c.err, want); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
}

func TestSameSortedIgnoresOrderOnly(t *testing.T) {
	if !sameSorted(tuples(3, 1, 2), tuples(1, 2, 3)) {
		t.Error("same tuples in another order rejected")
	}
	if sameSorted(tuples(1, 2), tuples(1, 2, 3)) || sameSorted(tuples(1, 2, 2), tuples(1, 2, 3)) {
		t.Error("different tuple lists accepted")
	}
}
