package noise_test

import (
	"testing"

	"fastsc/internal/compile"
	"fastsc/internal/expt"
	"fastsc/internal/noise"
	"fastsc/internal/phys"
)

// BenchmarkEvaluate scores the 110 schedules of the Fig 9 sweep per op,
// the evaluator's share of a warm sweep. warm reuses the schedules'
// Systems, so every flux sensitivity is a memo hit; cold gives each op
// fresh, identical Systems, so each distinct (qubit, frequency) pays its
// FluxFor bisection once per op, as a sweep on newly built devices does.
func BenchmarkEvaluate(b *testing.B) {
	jobs := fig9Schedules(b, compile.NewContext(1))
	opt := noise.DefaultOptions()
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, job := range jobs {
				noise.Evaluate(job.sched, opt)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := make(map[*phys.System]*phys.System)
			for _, job := range jobs {
				sys := job.sched.System
				if fresh[sys] == nil {
					fresh[sys] = phys.NewSystem(sys.Device, sys.Params, expt.DeviceSeed)
				}
			}
			b.StartTimer()
			for _, job := range jobs {
				s := *job.sched
				s.System = fresh[s.System]
				noise.Evaluate(&s, opt)
			}
		}
	})
}
