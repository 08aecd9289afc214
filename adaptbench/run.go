package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/manager"
)

const (
	// warmup is video-swap's warm-up segment, run before the measured one
	// so that the SAG build, lazy filter instantiation and connection
	// set-up are not timed.
	warmup = time.Second
	// maxAdaptRate bounds the adaptations per second the preallocated
	// sample buffers hold; a run that reaches it ends early.
	maxAdaptRate = 20000
	// spanCapacity bounds a traced phase: it ends when the buffer is full.
	spanCapacity = 300000
)

// workload is one workload's set-up and how many times a measured run
// builds it to time set-up, and, for the closed loops, how many
// adaptations warm it up and how many its heap growth is read over. The
// adaptation counts are fixed, so the readings fall at the same point of
// the program's slice-growth cycles in every run; reading at the end of a
// timed window would not.
//
// Set-up takes 0.05-3 ms, so each count spreads the set-ups over one to
// three seconds of the host's state. setup_s is the fastest of them: how
// many set-ups a descheduled vCPU or a slow fsync on a shared disk
// interrupts varies from run to run; on a shared 2-vCPU VM the ten-run
// spread of the set-ups' median was 1.4-1.8 times that of their minimum.
type workload struct {
	setup            func(d *deployment, o options, log *frameLog, idx int) error
	setups           int
	warmOps, heapOps int
}

var workloads = map[string]workload{
	"adapt-bus": {
		setup:   func(d *deployment, o options, _ *frameLog, _ int) error { return setupBus(d, o.seed) },
		setups:  5000,
		warmOps: 2000, heapOps: 20000,
	},
	"adapt-durable": {
		setup:   func(d *deployment, o options, _ *frameLog, idx int) error { return setupDurable(d, o.seed, o.dir, idx) },
		setups:  1000,
		warmOps: 30, heapOps: 300,
	},
	"video-swap": {
		setup:  func(d *deployment, o options, log *frameLog, _ int) error { return setupVideo(d, o.seed, log) },
		setups: 1000,
	},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	dir      string // journals and span files
}

func (o options) video() bool { return o.workload == "video-swap" }

// phase is one measured window on one deployment. Its sample buffers are
// allocated before the deployment is built, so the heap readings see only
// the program.
type phase struct {
	t *tracer // nil when untraced

	setupS []float64

	adaptLat    []int64    // Execute call to return, ns
	gaps        []int64    // per adaptation: swap gap (video) or longest step BlockedFor, ns
	stepBlocked []int64    // per step BlockedFor, ns (traced phases)
	windows     [][2]int64 // video: adaptation windows, nowNS
	frameDelay  []int64    // video: due time to last fragment delivered, per client, ns

	firstTrace uint64 // first measured adaptation's sequence number
	firstFrame uint32 // first measured frame
	frames     int    // measured frames
	steps      int
	stepsDone  int

	attempted, failed int
	start, end        usage
	s                 *sampler
	delayMarks        []int   // video: frameDelay index at each slice boundary
	heapGrowth        float64 // live heap growth per op, bytes

	journalBytes int64
	standbysEnd  int
	stream       streamCounters
	lateMax      [2]int64 // generator lateness: inside, outside adaptation windows, ns
}

func (p *phase) adapts() int { return len(p.adaptLat) }

// opLat is the per-op latency samples: adaptations, or frame deliveries
// in video-swap.
func (p *phase) opLat(o options) []int64 {
	if o.video() {
		return p.frameDelay
	}
	return p.adaptLat
}

// ops is what per-op metrics divide by: adaptations, or frames in video-swap.
func (p *phase) ops(o options) int {
	if o.video() {
		return p.frames
	}
	return p.adapts()
}

func newPhase(o options, dur time.Duration, traced bool) *phase {
	p := &phase{s: newSampler()}
	n := int(dur.Seconds()*maxAdaptRate) + 16
	if o.video() {
		n = int(dur/adaptPeriod) + 16
		frames := int((warmup+dur)/framePeriod) + 64
		p.windows = make([][2]int64, 0, n)
		p.frameDelay = make([]int64, 0, 2*frames)
	}
	p.adaptLat = make([]int64, 0, n)
	p.gaps = make([]int64, 0, n)
	if traced {
		p.t = newTracer(spanCapacity)
		p.stepBlocked = make([]int64, 0, spanCapacity/4)
	}
	return p
}

// runPhase builds the workload's deployment `setups` times (closing all
// but the last), warms it up, measures it for dur and runs the end-of-run
// oracle.
func runPhase(o options, dur time.Duration, traced bool, setups int) (*phase, error) {
	p := newPhase(o, dur, traced)
	var log *frameLog
	if o.video() {
		log = newFrameLog(int((warmup+dur)/framePeriod)+64, o.seed, traced)
	}
	var d *deployment
	for i := 0; i < setups; i++ {
		// Collect the garbage of the previous set-ups outside the timed
		// part, so each set-up starts from a clean heap, as in a fresh
		// process.
		runtime.GC()
		start := time.Now()
		sc, err := newScenario()
		if err != nil {
			return p, err
		}
		d = &deployment{sc: sc, t: p.t}
		err = workloads[o.workload].setup(d, o, log, i)
		p.setupS = append(p.setupS, time.Since(start).Seconds())
		if err != nil {
			_ = d.close()
			d.removeJournals()
			return p, fmt.Errorf("setup: %w", err)
		}
		if i < setups-1 {
			err := d.close()
			d.removeJournals()
			if err != nil {
				return p, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	var err error
	if o.video() {
		err = p.runVideo(d, o, dur)
	} else {
		err = p.runClosed(d, o, dur)
	}
	return p, errors.Join(err, p.finish(d))
}

// runClosed is the adapt-* loop: one client, each request sent when the
// previous one returned, alternating forward and mirror. After a fixed
// warm-up it reads heap growth over a fixed number of adaptations, then
// measures for dur.
func (p *phase) runClosed(d *deployment, o options, dur time.Duration) error {
	w := workloads[o.workload]
	i := 0
	run := func(n int) error {
		for end := i + n; i < end; i++ {
			if _, _, err := d.adapt(i); err != nil {
				return fmt.Errorf("adaptation %d: %w", i, err)
			}
		}
		return nil
	}
	if err := run(w.warmOps); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	heap0 := liveHeap()
	if err := run(w.heapOps); err != nil {
		return err
	}
	p.heapGrowth = (liveHeap() - heap0) / float64(w.heapOps)

	p.firstTrace = uint64(i + 1)
	size0 := fileSize(d.leaderPath)
	p.beginMeasure(dur)
	for end := time.Now().Add(dur); time.Now().Before(end) && len(p.adaptLat) < cap(p.adaptLat) && !p.spansFull(); i++ {
		p.attempted++
		res, lat, err := d.adapt(i)
		if err != nil {
			p.failed++
			return fmt.Errorf("adaptation %d: %w", i, err)
		}
		p.adaptLat = append(p.adaptLat, int64(lat))
		p.gaps = append(p.gaps, int64(p.noteSteps(res)))
		p.s.adapts.Add(1)
		p.s.ops.Add(1)
	}
	p.endMeasure()
	p.journalBytes = fileSize(d.leaderPath) - size0
	return nil
}

// noteSteps counts a measured adaptation's step attempts and returns its
// longest blocked window.
func (p *phase) noteSteps(res manager.Result) time.Duration {
	var longest time.Duration
	for _, s := range res.Steps {
		longest = max(longest, s.BlockedFor)
		p.steps++
		if s.Outcome == "completed" {
			p.stepsDone++
		}
		if p.t != nil && len(p.stepBlocked) < cap(p.stepBlocked) {
			p.stepBlocked = append(p.stepBlocked, int64(s.BlockedFor))
		}
	}
	return longest
}

func (p *phase) spansFull() bool { return p.t != nil && p.t.full.Load() }

// beginMeasure drops warm-up spans and takes the starting readings.
func (p *phase) beginMeasure(dur time.Duration) {
	if p.t != nil {
		p.t.mu.Lock()
		p.t.spans = p.t.spans[:0]
		p.t.full.Store(false)
		p.t.mu.Unlock()
	}
	p.s.start(dur)
	p.start = readUsage()
}

func (p *phase) endMeasure() {
	p.end = readUsage()
	p.s.finish()
}

// finish runs the end-of-run oracle and stops the deployment.
func (p *phase) finish(d *deployment) error {
	var errs []error
	if d.tee != nil {
		p.standbysEnd = d.tee.Standbys()
		if p.standbysEnd != 1 {
			errs = append(errs, fmt.Errorf("%d standbys attached at the end, want 1", p.standbysEnd))
		}
	}
	if d.video != nil {
		if err := waitFor(d.video.drained); err != nil {
			errs = append(errs, fmt.Errorf("video links did not drain: %w", err))
		}
	}
	if err := d.close(); err != nil {
		errs = append(errs, fmt.Errorf("teardown: %w", err))
	}
	if d.video != nil {
		s := d.video.counters()
		p.stream = s
		if s.corrupted != 0 || s.undecoded != 0 || s.decodeErrors != 0 || s.incomplete != 0 {
			errs = append(errs, fmt.Errorf("video stream damaged: %+v", s))
		}
	}
	if d.tee != nil {
		errs = append(errs, d.checkJournals())
		d.removeJournals()
	}
	return errors.Join(errs...)
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
