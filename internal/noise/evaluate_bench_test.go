package noise_test

import (
	"testing"

	"fastsc/internal/compile"
	"fastsc/internal/core"
	"fastsc/internal/expt"
	"fastsc/internal/noise"
	"fastsc/internal/phys"
	"fastsc/internal/schedule"
)

// BenchmarkEvaluate scores the 110 schedules of the Fig 9 sweep per op,
// the evaluator's share of a warm sweep. warm reuses the schedules'
// Systems, so every flux sensitivity is a memo hit; cold gives each op
// fresh, identical Systems, so each distinct (qubit, frequency) pays its
// FluxFor bisection once per op, as a sweep on newly built devices does.
// deep scores one ColorDynamic schedule of a 6000-gate circuit on a
// 100-qubit grid, the shape of fastscbench's deep-100q op, without the
// compile around it.
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
	b.Run("deep", func(b *testing.B) {
		sys := expt.GridSystem(100)
		s := goldenSchedule(b, compile.NewContext(1), deepCircuit(sys, 6000, 1), sys,
			schedule.ColorDynamic{}.Name(), core.Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			noise.Evaluate(s, opt)
		}
	})
}
