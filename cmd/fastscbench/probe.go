package main

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores and memory with other
// machines, and its speed drifts by 10 to 40% over seconds to minutes: two
// 30-s runs of the same code can differ by more than a regression bound.
// Every workload therefore times a probe, fixed work that uses nothing of
// the code under test, between its ops and around every set-up, and
// reports each time scaled by probeRefMs over the probe times around it:
// the time it would take on a host as fast as the reference host. An op
// and the probes next to it slow down together, so the scaling cancels
// most of the drift: on the reference host it cut the run-to-run spread of
// the closed loops' op times about threefold (README.md has the numbers).
//
// The probe allocates, as the compiler does: a probe that works on
// preallocated memory did not follow the drift. It runs in the workload's
// own process, so a change that makes the code under test allocate less
// also shortens the probe's share of garbage collection a little, and the
// scaled times show somewhat less of that change than raw times would.
// Every untraced run prints the raw op times and the probe's median beside
// the scaled metrics.

// probeRefMs is the probe's median time on the reference host (2 vCPUs,
// Intel Xeon, Go 1.24), the speed the scaled times are expressed at.
const probeRefMs = 1.6

// probeWork is one worker's share of a probe: map, slice and sort work
// that allocates and touches fresh memory.
func probeWork(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for range 4 {
		m := make(map[int][]int)
		for i := range 3000 {
			k := rng.Intn(600)
			m[k] = append(m[k], i)
		}
		lens := make([]int, 0, len(m))
		for _, v := range m {
			lens = append(lens, len(v))
		}
		slices.Sort(lens)
	}
}

// probeMs times one probe, benchWorkers goroutines each doing one share as
// an op's compile workers share the cores, and returns its time in ms.
func probeMs() float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := range benchWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeWork(int64(w))
		}()
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}

// probeSample is one probe's time and the op it ran just before.
type probeSample struct {
	op int
	ms float64
}

// scaleToRef scales each op's time to the reference host's speed by the
// median of the probes that ran before ops i−w to i+w+1, that is the probes
// just before and just after op i and up to w more on each side; an op with
// none in reach takes the median of all. probes are in op order, and at
// least one.
func scaleToRef(times []float64, probes []probeSample, w int) []float64 {
	overall := probeMedian(probes)
	out := make([]float64, len(times))
	var near []float64
	for i, t := range times {
		k := sort.Search(len(probes), func(k int) bool { return probes[k].op >= i-w })
		near = near[:0]
		for ; k < len(probes) && probes[k].op <= i+w+1; k++ {
			near = append(near, probes[k].ms)
		}
		ref := overall
		if len(near) > 0 {
			ref = percentile(near, 0.5)
		}
		out[i] = t * probeRefMs / ref
	}
	return out
}

// probeMedian returns the median probe time in ms.
func probeMedian(probes []probeSample) float64 {
	ms := make([]float64, len(probes))
	for k, p := range probes {
		ms[k] = p.ms
	}
	return percentile(ms, 0.5)
}
