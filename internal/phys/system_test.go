package phys

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"fastsc/internal/topology"
)

func TestNewSystemDeterministic(t *testing.T) {
	dev := topology.Grid(3, 3)
	s1 := NewSystem(dev, DefaultParams(), 42)
	s2 := NewSystem(dev, DefaultParams(), 42)
	for q := 0; q < dev.Qubits; q++ {
		if s1.Qubits[q].OmegaMax != s2.Qubits[q].OmegaMax {
			t.Fatalf("same seed produced different chips at qubit %d", q)
		}
	}
	s3 := NewSystem(dev, DefaultParams(), 43)
	same := true
	for q := 0; q < dev.Qubits; q++ {
		if s1.Qubits[q].OmegaMax != s3.Qubits[q].OmegaMax {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical chips")
	}
}

func TestNewSystemSpread(t *testing.T) {
	dev := topology.Grid(5, 5)
	p := DefaultParams()
	s := NewSystem(dev, p, 7)
	mean := 0.0
	for _, tr := range s.Qubits {
		mean += tr.OmegaMax
	}
	mean /= float64(len(s.Qubits))
	if math.Abs(mean-p.OmegaMax) > 3*p.OmegaSigma {
		t.Fatalf("sampled mean %v too far from %v", mean, p.OmegaMax)
	}
}

func TestSystemG0(t *testing.T) {
	dev := topology.Grid(2, 2)
	s := NewSystem(dev, DefaultParams(), 1)
	if g := s.G0(0, 1); g != DefaultG0 {
		t.Fatalf("G0(0,1) = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("G0 on uncoupled pair did not panic")
		}
	}()
	s.G0(0, 3) // diagonal, not coupled on a 2x2 grid
}

func TestCommonRange(t *testing.T) {
	dev := topology.Grid(3, 3)
	s := NewSystem(dev, DefaultParams(), 11)
	lo, hi := s.CommonRange()
	if lo >= hi {
		t.Fatalf("empty common range [%v, %v]", lo, hi)
	}
	for q, tr := range s.Qubits {
		qlo, qhi := tr.TunableRange()
		if lo < qlo-1e-9 || hi > qhi+1e-9 {
			t.Fatalf("common range [%v,%v] exceeds qubit %d range [%v,%v]", lo, hi, q, qlo, qhi)
		}
	}
	// The parking (5 GHz) and interaction (near 6.5-7) regions must be
	// reachable by every qubit for the paper's partition to work.
	if lo > 5.0 || hi < 6.5 {
		t.Fatalf("common range [%v,%v] too narrow for the paper's partition", lo, hi)
	}
}

func TestMeanAnharmonicity(t *testing.T) {
	dev := topology.Grid(2, 2)
	s := NewSystem(dev, DefaultParams(), 1)
	if a := s.MeanAnharmonicity(); math.Abs(a+DefaultEC) > 1e-12 {
		t.Fatalf("mean anharmonicity = %v, want %v", a, -DefaultEC)
	}
}

func TestDefaultSystemStableAcrossCalls(t *testing.T) {
	dev := topology.Grid(3, 3)
	a := DefaultSystem(dev)
	b := DefaultSystem(dev)
	for q := range a.Qubits {
		if a.Qubits[q].OmegaMax != b.Qubits[q].OmegaMax {
			t.Fatal("DefaultSystem not deterministic for same device")
		}
	}
}

// directSensitivity is SensitivityAt's definition, computed afresh.
func directSensitivity(tr Transmon, freq float64) float64 {
	phi, err := tr.FluxFor(freq)
	if err != nil {
		return 0
	}
	return tr.FluxSensitivity(phi)
}

// sensFreqs spans qubit q's tunable range plus points just outside it.
func sensFreqs(tr Transmon, n int) []float64 {
	lo, hi := tr.TunableRange()
	out := []float64{lo - 0.1, hi + 0.1, lo, hi}
	for i := 0; i < n; i++ {
		out = append(out, lo+(hi-lo)*float64(i)/float64(n-1))
	}
	return out
}

func TestSensitivityAtMatchesDirect(t *testing.T) {
	sys := NewSystem(topology.Grid(2, 3), DefaultParams(), 42)
	for pass := 0; pass < 2; pass++ { // cold memo, then warm
		for q, tr := range sys.Qubits {
			for _, f := range sensFreqs(tr, 20) {
				got, want := sys.SensitivityAt(q, f), directSensitivity(tr, f)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pass %d qubit %d f=%v: %v, direct %v", pass, q, f, got, want)
				}
			}
		}
	}
	if got := sys.SensitivityAt(0, sys.Qubits[0].OmegaMax+1); got != 0 {
		t.Fatalf("out of range: %v, want 0", got)
	}
}

func TestSensitivityAtKeepsCap(t *testing.T) {
	sys := NewSystem(topology.Grid(2, 2), DefaultParams(), 42)
	tr := sys.Qubits[1]
	freqs := sensFreqs(tr, 3*sensCap)
	for _, f := range freqs {
		sys.SensitivityAt(1, f)
	}
	stored := *sys.sens.Load().qubits[1].Load()
	if len(stored) != sensCap {
		t.Fatalf("%d entries stored for %d frequencies, cap is %d", len(stored), len(freqs), sensCap)
	}
	// Past the cap, lookups are still exact.
	for _, f := range freqs {
		if got, want := sys.SensitivityAt(1, f), directSensitivity(tr, f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("f=%v: %v, direct %v", f, got, want)
		}
	}
	if sys.sens.Load().qubits[0].Load() != nil {
		t.Fatal("a qubit never asked about has entries")
	}
}

// TestSensitivityAtConcurrent hammers one cold memo from 8×GOMAXPROCS
// goroutines over overlapping (qubit, frequency) sets; run under -race it
// is the data-race check of the copy-on-write publication.
func TestSensitivityAtConcurrent(t *testing.T) {
	sys := NewSystem(topology.Grid(3, 3), DefaultParams(), 42)
	freqs := make([][]float64, len(sys.Qubits))
	for q, tr := range sys.Qubits {
		freqs[q] = sensFreqs(tr, 12)
	}
	n := 8 * runtime.GOMAXPROCS(0)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := (g + i) % len(sys.Qubits)
				f := freqs[q][(g*7+i)%len(freqs[q])]
				if got, want := sys.SensitivityAt(q, f), directSensitivity(sys.Qubits[q], f); math.Float64bits(got) != math.Float64bits(want) {
					errs <- fmt.Errorf("qubit %d f=%v: %v, direct %v", q, f, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for q := range sys.Qubits {
		list := sys.sens.Load().qubits[q].Load()
		if list == nil {
			continue
		}
		seen := map[float64]bool{}
		for _, e := range *list {
			if seen[e.freq] {
				t.Fatalf("qubit %d: frequency %v stored twice", q, e.freq)
			}
			seen[e.freq] = true
		}
	}
}
