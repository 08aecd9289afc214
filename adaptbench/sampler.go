package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// numSlices is how many equal slices a measured window is cut into. Each
// end-to-end timing and rate is computed per slice and reported as the
// median over the slices, so a burst of slow fsyncs on a shared disk in
// one slice does not move the result.
const numSlices = 5

// mark is a reading taken at a slice boundary.
type mark struct {
	at          int64 // nowNS
	ops, adapts int64
	cpu         time.Duration
}

// sampler runs beside a measured window and marks its slice boundaries.
type sampler struct {
	ops, adapts atomic.Int64 // counted by the workload loops

	marks      []mark
	stop, done chan struct{}
}

func newSampler() *sampler {
	return &sampler{marks: make([]mark, 0, numSlices+1)}
}

func (s *sampler) mark(now int64) mark {
	return mark{at: now, ops: s.ops.Load(), adapts: s.adapts.Load(), cpu: readUsage().cpu}
}

// start takes the first mark and polls for the slice boundaries of a
// window of length dur until stopped.
func (s *sampler) start(dur time.Duration) {
	t0 := nowNS()
	s.marks = append(s.marks, s.mark(t0))
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if n := len(s.marks); n <= numSlices && nowNS() >= t0+int64(n)*int64(dur)/numSlices {
				s.marks = append(s.marks, s.mark(nowNS()))
			}
		}
	}()
}

// finish stops polling and closes the last slice if the poller has not
// yet (the loop ended between two ticks, or a full span buffer cut the
// window short).
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	if len(s.marks) < numSlices+1 {
		s.marks = append(s.marks, s.mark(nowNS()))
	}
}

// liveHeap forces a collection and returns the live heap it marked.
// Callers take it with the workload quiescent, so no allocation races the
// mark and the reading is exact.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
