package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/action"
	"repro/internal/adapters"
	"repro/internal/agent"
	"repro/internal/manager"
	"repro/internal/metasocket"
	"repro/internal/netsim"
	"repro/internal/paper"
	"repro/internal/video"
)

// The video-swap stream: 500 frames/s of 2 KiB, each 8 packets of 256 B,
// multicast to the handheld (3 ms link) and the laptop (2 ms link), with an
// adaptation every 250 ms.
const (
	framePeriod   = 2 * time.Millisecond
	frameBytes    = 2048
	fragSize      = 256
	fragsPerFrame = frameBytes / fragSize
	adaptPeriod   = 250 * time.Millisecond
	payloadPool   = 16 // distinct frame payloads, cycled by frame ID
)

var clientNames = [2]string{paper.ProcessHandheld, paper.ProcessLaptop}

// frameLog records, per client and frame ID, how many fragments were
// delivered and when the last one was. Its arrays are allocated once per
// run, before the warm-up heap reading, and indexed by frame ID; each
// client's entries are written only by that client's delivery goroutine.
type frameLog struct {
	count     [2][]uint8
	done      [2][]int64 // nowNS when the frame's last fragment was delivered
	sendStart []int64    // nowNS when the generator began sending the frame
	payloads  [][]byte

	// Traced runs only: when each packet (by Seq) left the send chain,
	// and when the packet each client is decoding arrived.
	sendAt  []int64
	arrival [2]int64
}

func newFrameLog(frames int, seed int64, traced bool) *frameLog {
	l := &frameLog{sendStart: make([]int64, frames)}
	for c := range l.count {
		l.count[c] = make([]uint8, frames)
		l.done[c] = make([]int64, frames)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < payloadPool; i++ {
		l.payloads = append(l.payloads, video.GenerateFrame(rng.Uint32(), frameBytes-8).Payload)
	}
	if traced {
		l.sendAt = make([]int64, frames*fragsPerFrame+1)
	}
	return l
}

// videoSystem is the Fig. 3 system built here rather than by
// video.NewSystem, so that the benchmark can time the TransmitFunc and
// install its observers before traffic starts.
type videoSystem struct {
	group   *netsim.Group
	subs    [2]*netsim.Subscription
	send    *metasocket.SendSocket
	server  *video.Server
	clients [2]*video.Client
	log     *frameLog

	// expected[r][p] is the filter chain process p must show after
	// request r.
	expected [2]map[string][]string
}

// setupVideo builds the video-swap deployment: the video system over
// netsim, SocketProcess hooks, sender-first reset phases, and the control
// plane over loopback TCP.
func setupVideo(d *deployment, seed int64, log *frameLog) error {
	t := d.t
	v := &videoSystem{group: netsim.NewGroup(seed), log: log}
	d.video = v
	// Registered first, so it runs after the control plane has stopped:
	// closing the group ends the forwarding goroutines and, through their
	// channels, the sockets' consumers.
	d.onClose(func() error {
		err := v.group.Close()
		for _, cl := range v.clients {
			if cl != nil {
				cl.Socket().Wait()
			}
		}
		if v.send != nil {
			v.send.Close()
		}
		return err
	})
	links := [2]netsim.LinkProfile{{Latency: 3 * time.Millisecond}, {Latency: 2 * time.Millisecond}}
	for c, name := range clientNames {
		sub, err := v.group.Subscribe(name, links[c], 1024)
		if err != nil {
			return err
		}
		v.subs[c] = sub
	}
	factory := video.FilterFactory()
	e1, err := factory("E1")
	if err != nil {
		return err
	}
	transmit := func(dg []byte) error { return v.group.Send(dg) }
	if t != nil {
		transmit = func(dg []byte) error {
			return t.timeCall(kindTransmit, t.frameTrace.Load(), t.frameSpan.Load(), nil, func() error { return v.group.Send(dg) })
		}
	}
	if v.send, err = metasocket.NewSendSocket(transmit, e1); err != nil {
		return err
	}
	if v.server, err = video.NewServer(v.send, fragSize); err != nil {
		return err
	}
	if t != nil {
		v.send.SetObserver(func(p metasocket.Packet) {
			if p.Seq < uint64(len(log.sendAt)) {
				log.sendAt[p.Seq] = nowNS()
			}
		})
	}
	for c, first := range []string{"D1", "D4"} {
		f, err := factory(first)
		if err != nil {
			return err
		}
		if v.clients[c], err = video.BuildClient(clientNames[c], f); err != nil {
			return err
		}
		v.observe(c, t)
		sub, sock := v.subs[c], v.clients[c].Socket()
		sock.SetPendingFunc(sub.InFlight)
		ch := make(chan []byte, 1024)
		go func() {
			defer close(ch)
			for dg := range sub.Recv() {
				ch <- dg
			}
		}()
		if err := sock.Start(ch); err != nil {
			return err
		}
	}

	procs := map[string]agent.LocalProcess{
		paper.ProcessServer:   adapters.NewSendProcess(paper.ProcessServer, v.send, factory),
		paper.ProcessHandheld: adapters.NewRecvProcess(paper.ProcessHandheld, v.clients[0].Socket(), factory),
		paper.ProcessLaptop:   adapters.NewRecvProcess(paper.ProcessLaptop, v.clients[1].Socket(), factory),
	}
	for r, req := range d.sc.requests {
		v.expected[r] = make(map[string][]string)
		for _, name := range d.sc.reg.NamesOf(req.target) {
			p := d.sc.processOf(name)
			v.expected[r][p] = append(v.expected[r][p], name)
		}
	}

	mgrEP, eps, err := d.listenTCP()
	if err != nil {
		return err
	}
	if err := d.startAgents(eps, procs); err != nil {
		return err
	}
	d.mgr, err = manager.New(d.endpoint(mgrEP, true), d.sc.plan, manager.Options{
		StepTimeout: stepTimeout,
		BackoffSeed: seed,
		ResetPhases: func(_ action.Action, participants []string) [][]string {
			return video.SenderFirstPhases(participants)
		},
	})
	return err
}

// observe installs client c's delivery observer, which completes frames,
// and in a traced run the arrival observer, which closes netsim.link spans
// and opens metasocket.recv spans.
func (v *videoSystem) observe(c int, t *tracer) {
	log, sock := v.log, v.clients[c].Socket()
	if t != nil {
		sock.SetArrivalObserver(func(p metasocket.Packet) {
			now := nowNS()
			log.arrival[c] = now
			if p.Seq < uint64(len(log.sendAt)) {
				t.record(span{trace: uint64(p.Frame), id: t.newID(), kind: kindLink, start: log.sendAt[p.Seq], end: now})
			}
		})
	}
	sock.SetDeliveryObserver(func(p metasocket.Packet) {
		now := nowNS()
		if t != nil {
			t.record(span{trace: uint64(p.Frame), id: t.newID(), kind: kindRecv, start: log.arrival[c], end: now})
		}
		if int(p.Frame) < len(log.count[c]) {
			log.count[c][p.Frame]++
			if log.count[c][p.Frame] == uint8(p.Count) {
				log.done[c][p.Frame] = now
			}
		}
	})
}

// sendFrame sends frame id; a traced run times it as the frame's root span.
func (v *videoSystem) sendFrame(id uint32, t *tracer) error {
	f := video.Frame{ID: id, Payload: v.log.payloads[int(id)%len(v.log.payloads)]}
	if t == nil {
		return v.server.SendFrame(f)
	}
	t.frameTrace.Store(uint64(id))
	return t.timeCall(kindSendFrame, uint64(id), 0, &t.frameSpan, func() error { return v.server.SendFrame(f) })
}

// drained reports that both links are empty and every delivered datagram
// has been processed.
func (v *videoSystem) drained() bool {
	for c, sub := range v.subs {
		delivered, _ := sub.Stats()
		if sub.InFlight() != 0 || uint64(delivered) > v.clients[c].Socket().Processed() {
			return false
		}
	}
	return true
}

// checkFilters is the per-swap oracle: every socket's chain matches the
// configuration request r asked for.
func (v *videoSystem) checkFilters(r int) error {
	chains := map[string][]string{
		paper.ProcessServer:   v.send.Filters(),
		paper.ProcessHandheld: v.clients[0].Socket().Filters(),
		paper.ProcessLaptop:   v.clients[1].Socket().Filters(),
	}
	for p, want := range v.expected[r] {
		if !slices.Equal(chains[p], want) {
			return fmt.Errorf("%s filters %v after the swap, want %v", p, chains[p], want)
		}
	}
	return nil
}

// streamCounters are the data-plane counters read at the end of a run.
type streamCounters struct {
	decodeErrors, dropped            uint64
	corrupted, incomplete, undecoded int
}

func (v *videoSystem) counters() streamCounters {
	var s streamCounters
	for c, cl := range v.clients {
		s.decodeErrors += cl.Socket().DecodeErrors()
		_, dropped := v.subs[c].Stats()
		s.dropped += uint64(dropped)
		st := cl.Player().Finalize()
		s.corrupted += st.FramesCorrupted
		s.incomplete += st.FramesIncomplete
		s.undecoded += st.PacketsUndecoded
	}
	return s
}

// runVideo is the video-swap open loop: frames are sent on a fixed
// schedule whatever the system does, and adaptations start every
// adaptPeriod, alternating forward and mirror. A warm-up segment runs
// first; the measured segment follows once the links have drained.
func (p *phase) runVideo(d *deployment, o options, dur time.Duration) error {
	rng := rand.New(rand.NewSource(o.seed))
	// The first adaptation starts at a seeded phase of the frame schedule.
	offset := 50*time.Millisecond + time.Duration(rng.Int63n(int64(adaptPeriod/2)))
	warmFrames := int(warmup / framePeriod)
	adaptIdx := 0
	if _, err := p.segment(d, 0, warmFrames, &adaptIdx, offset, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := waitFor(d.video.drained); err != nil {
		return fmt.Errorf("warm-up drain: %w", err)
	}
	p.firstTrace = uint64(adaptIdx + 1)
	p.firstFrame = uint32(warmFrames)
	p.frames = int(dur / framePeriod)
	// The frame count is fixed by the schedule, so the two heap readings,
	// taken with the links drained, bracket a fixed amount of work.
	heap0 := liveHeap()
	p.beginMeasure(dur)
	start, err := p.segment(d, p.firstFrame, p.frames, &adaptIdx, offset, true)
	if err != nil {
		return err
	}
	if err := waitFor(d.video.drained); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	p.endMeasure()
	p.heapGrowth = (liveHeap() - heap0) / float64(p.frames)
	p.frameStats(d.video.log, start)
	return nil
}

// segment streams n frames from frame first, due every framePeriod from a
// start just ahead of now, and runs the scheduled adaptations meanwhile.
// It returns the schedule's start. With measure set it records the
// adaptations' latencies and windows.
func (p *phase) segment(d *deployment, first uint32, n int, adaptIdx *int, offset time.Duration, measure bool) (int64, error) {
	v, t := d.video, d.t
	start := nowNS() + int64(time.Millisecond)
	end := start + int64(n)*int64(framePeriod)
	var genErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			id := first + uint32(i)
			due := start + int64(i)*int64(framePeriod)
			if wait := due - nowNS(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			v.log.sendStart[id] = nowNS()
			if err := v.sendFrame(id, t); err != nil {
				genErr = fmt.Errorf("frame %d: %w", id, err)
				return
			}
			if measure {
				p.s.ops.Add(1)
			}
		}
	}()
	var err error
	// Adaptations end at least 100 ms before the stream does, so every
	// swap has frames on both sides of it.
	for k := 0; ; k++ {
		at := start + int64(offset) + int64(k)*int64(adaptPeriod)
		if at > end-int64(100*time.Millisecond) {
			break
		}
		if wait := at - nowNS(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		i := *adaptIdx
		*adaptIdx++
		s := nowNS()
		res, lat, aerr := d.adapt(i)
		e := nowNS()
		if aerr == nil {
			aerr = v.checkFilters(i % 2)
		}
		if measure {
			p.attempted++
			if aerr == nil {
				p.noteSteps(res)
				p.adaptLat = append(p.adaptLat, int64(lat))
				p.windows = append(p.windows, [2]int64{s, e})
				p.s.adapts.Add(1)
			} else {
				p.failed++
			}
		}
		if aerr != nil {
			err = fmt.Errorf("adaptation %d: %w", i, aerr)
			break
		}
	}
	<-done
	return start, errors.Join(err, genErr)
}

// inWindow reports whether time at falls inside a measured adaptation.
func (p *phase) inWindow(at int64) bool {
	for _, w := range p.windows {
		if at >= w[0] && at <= w[1] {
			return true
		}
	}
	return false
}

// frameStats derives the frame metrics of the measured segment: delay per
// frame and client, failed deliveries, the swap gap of every adaptation,
// and how late the generator ran inside and outside adaptation windows.
func (p *phase) frameStats(log *frameLog, start int64) {
	var comp [2][]int64
	inside := false
	for i := 0; i < p.frames; i++ {
		if i == len(p.delayMarks)*p.frames/numSlices {
			p.delayMarks = append(p.delayMarks, len(p.frameDelay))
		}
		id := int(p.firstFrame) + i
		due := start + int64(i)*int64(framePeriod)
		for c := range clientNames {
			p.attempted++
			if log.count[c][id] != fragsPerFrame {
				p.failed++
				continue
			}
			p.frameDelay = append(p.frameDelay, log.done[c][id]-due)
			comp[c] = append(comp[c], log.done[c][id])
		}
		// Lateness counts as inside an adaptation window when the frame
		// fell due during one, or while the generator was still catching
		// up on the backlog a window left (the previous frame was inside
		// and this one is still at least half a period late).
		late := log.sendStart[id] - due
		inside = (inside && late >= int64(framePeriod/2)) || p.inWindow(due)
		if inside {
			p.lateMax[0] = max(p.lateMax[0], late)
		} else {
			p.lateMax[1] = max(p.lateMax[1], late)
		}
	}
	p.delayMarks = append(p.delayMarks, len(p.frameDelay))
	for c := range comp {
		slices.Sort(comp[c])
	}
	for _, w := range p.windows {
		var gap int64
		for _, cs := range comp {
			k, _ := slices.BinarySearch(cs, w[0])
			for k = max(k, 1); k < len(cs) && cs[k-1] <= w[1]; k++ {
				gap = max(gap, cs[k]-cs[k-1])
			}
		}
		p.gaps = append(p.gaps, gap)
	}
}
