package compile

// Size-aware eviction: cache capacity is counted in units, where one unit
// approximates a small entry (an SMT solve, a typical slice solution).
// Bulky values — crosstalk graphs, whole-device palettes — are weighed by
// their approximate byte size and occupy proportionally more units, so
// evicting under pressure sheds the memory hogs' fair share instead of
// treating a 100 KB adjacency structure like a 100 B frequency list.

// Sizer is implemented by cached values that can report their approximate
// in-memory size in bytes (xtalk.Graph, mapping.Result and
// circuit.Analysis do).
// Values without it are weighed by their concrete type's known shape, or
// fall back to one unit.
type Sizer interface{ ApproxSize() int }

// costUnitBytes is the byte size one capacity unit stands for. Entries at
// or below it cost exactly one unit.
const costUnitBytes = 512

// entryCost returns the capacity units an entry occupies: at least 1, plus
// one per costUnitBytes of approximate value size beyond the first.
func entryCost(v any) int {
	var bytes int
	switch x := v.(type) {
	case Sizer:
		bytes = x.ApproxSize()
	case SliceSolution:
		bytes = 4*len(x.Coloring) + 8*len(x.Deferred) + 8*len(x.Assign) + 48
	case smtResult:
		bytes = 8*len(x.xs) + 32
	case []float64:
		bytes = 8*len(x) + 24
	default:
		return 1
	}
	cost := 1 + bytes/costUnitBytes
	return cost
}
