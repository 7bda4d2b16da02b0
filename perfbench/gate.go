package main

import (
	"bytes"
	"fmt"
	"sort"

	"cqrep/internal/relation"
)

// encodeAll is the canonical byte form of a tuple list, in the given
// order.
func encodeAll(ts []relation.Tuple) []byte {
	var b []byte
	for _, t := range ts {
		b = t.AppendEncode(b)
	}
	return b
}

// sortedCopy returns ts sorted lexicographically.
func sortedCopy(ts []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// sameSorted reports whether a and b hold the same tuples, in any order.
func sameSorted(a, b []relation.Tuple) bool {
	return len(a) == len(b) && bytes.Equal(encodeAll(sortedCopy(a)), encodeAll(sortedCopy(b)))
}

// checkStream accepts a served stream only when it ended with a clean
// terminal and carries exactly want, in order: a truncated, extended,
// reordered or failed stream is rejected.
func checkStream(got []relation.Tuple, terminal error, want []relation.Tuple) error {
	if terminal != nil {
		return fmt.Errorf("stream ended with %v after %d tuples", terminal, len(got))
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream carried %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("stream tuple %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
