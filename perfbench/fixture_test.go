package main

import (
	"bytes"
	"testing"

	"cqrep/internal/relation"
)

func TestRequestStreamsReproducibleFromSeed(t *testing.T) {
	for name, mk := range map[string]func(int64) []relation.Tuple{
		"scan":   func(s int64) []relation.Tuple { return scanFixture(s, 1).stream },
		"lookup": func(s int64) []relation.Tuple { return lookupFixture(s).stream },
		"churn": func(s int64) []relation.Tuple {
			cf, err := newChurnFixture(s)
			if err != nil {
				t.Fatal(err)
			}
			return append(append([]relation.Tuple(nil), cf.readers...), scriptTuples(cf)...)
		},
	} {
		a, b, c := encodeAll(mk(7)), encodeAll(mk(7)), encodeAll(mk(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave one stream", name)
		}
	}
}

// scriptTuples flattens a churn script, deletes marked by a leading -1.
func scriptTuples(cf *churnFixture) []relation.Tuple {
	out := make([]relation.Tuple, len(cf.script))
	for i, op := range cf.script {
		t := op.Tuple
		if op.Del {
			t = append(relation.Tuple{-1}, t...)
		}
		out[i] = t
	}
	return out
}

func TestLookupBindingsAreEdges(t *testing.T) {
	fx := lookupFixture(3)
	r, err := fx.db.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	edges := map[string]bool{}
	for _, e := range r.Tuples() {
		edges[string(e.AppendEncode(nil))] = true
	}
	for _, vb := range fx.stream[:1000] {
		// A binding (x, z) asks for y with R(x,y), R(y,z), R(z,x).
		if !edges[string(relation.Tuple{vb[1], vb[0]}.AppendEncode(nil))] {
			t.Fatalf("binding %v is not an edge R(z, x)", vb)
		}
	}
	if len(distinct(fx.stream)) >= len(fx.stream)/2 {
		t.Error("lookup stream is not skewed: most requests are distinct")
	}
}
