// Package lintsmoke deliberately violates the fastscvet analyzers. The CI
// lint-smoke step runs the real driver over this package and asserts a
// NONZERO exit, proving the vet wiring actually fails the build on a
// finding (a silently-green lint would otherwise look identical to a
// clean one). The `want` comments double as expectations for the in-tree
// harness test, which keeps the seeded violations honest offline.
//
// This package lives under testdata so `go build ./...` and `go vet ./...`
// never see it; only explicit paths reach it.
package lintsmoke

import (
	"fmt"
	"sync"
)

// Keys returns m's keys in map-iteration order — a seeded maporder
// violation: the order changes run to run.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `maporder: iteration over map "m" feeds an append to "keys"`
		keys = append(keys, k)
	}
	return keys
}

// Hot is a seeded hotalloc violation: annotated as a hot path, yet it
// formats.
//
//fastsc:hotpath seeded violation for the lint-smoke self-test
func Hot(x int) string {
	return fmt.Sprintf("%d", x) // want `hotalloc: fmt\.Sprintf on a hot path`
}

type scratch struct{ buf []int }

var pool = sync.Pool{New: func() any { return new(scratch) }}

// Leak is a seeded poolpair violation: the pooled scratch is never put
// back. No pool is left in the tree outside the lint fixtures, so this is
// what keeps the built binary's poolpair analyzer under the CI gate.
func Leak() int {
	s := pool.Get().(*scratch) // want `poolpair: s acquired from pool is never released`
	return len(s.buf)
}
