package compile

import "sync"

// Recorder accumulates request-scoped cache counters. The process-wide
// Cache keeps global hit/miss statistics; a Recorder attached to a Context
// (Context.Record, see Scoped) additionally attributes each memoized lookup
// made *through that Context* to the request that issued it, so a server
// handling many tenants on one shared cache can report per-request hit
// rates and compute counts.
//
// Counting semantics: a lookup is recorded as a miss only when this
// caller's compute function actually ran. A caller that blocks on another
// request's in-flight computation of the same key (the cache's
// single-flight layer) records a hit — it did not pay for the compute. The
// sum of recorded misses across every Recorder in a process therefore
// equals the number of computations actually performed, which is what the
// single-flight concurrency test asserts on.
//
// A nil *Recorder is valid and records nothing. Recorder is safe for
// concurrent use by the worker goroutines of one batch.
type Recorder struct {
	mu      sync.Mutex
	regions map[string]Stats
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{regions: make(map[string]Stats)}
}

// record counts one lookup against region: a hit or a miss.
func (r *Recorder) record(region string, hit bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.regions[region]
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
	r.regions[region] = s
	r.mu.Unlock()
}

// StatsByRegion returns a copy of the per-region counters recorded so far.
func (r *Recorder) StatsByRegion() map[string]Stats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Stats, len(r.regions))
	for k, v := range r.regions {
		out[k] = v
	}
	return out
}

// Total aggregates the counters across all regions.
func (r *Recorder) Total() Stats {
	var total Stats
	for _, s := range r.StatsByRegion() {
		total = total.add(s)
	}
	return total
}

// Scoped returns a child Context for one request: it shares c's cache (and
// therefore its single-flight deduplication with every other request) but
// carries its own worker budget and a fresh Recorder, so the request's
// cache traffic is accounted separately from the process totals. workers
// <= 0 selects GOMAXPROCS.
func (c *Context) Scoped(workers int) *Context {
	return &Context{Cache: c.Cache, Workers: workers, Record: NewRecorder()}
}
