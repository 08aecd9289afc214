package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// spanKind names the public call a span timed.
type spanKind uint8

const (
	kindAdapt         spanKind = iota + 1 // manager.Manager.Execute
	kindPlan                              // planner.Planner.Plan on the same request
	kindSend                              // transport.Endpoint.Send / SendBatch
	kindPreAction                         // agent.LocalProcess.PreAction
	kindReset                             // agent.LocalProcess.Reset (drain + block)
	kindInAction                          // agent.LocalProcess.InAction
	kindResume                            // agent.LocalProcess.Resume
	kindPostAction                        // agent.LocalProcess.PostAction
	kindRollback                          // agent.LocalProcess.Rollback
	kindTeeAppend                         // replica.Tee.Append (the manager's journal)
	kindTeeSync                           // replica.Tee.Sync: local fsync + standby round trip
	kindJournalAppend                     // leader journal.File.Append
	kindJournalSync                       // leader journal.File.Sync
	kindStandbyAppend                     // standby journal.File.Append
	kindStandbySync                       // standby journal.File.Sync
	kindSendFrame                         // video.Server.SendFrame
	kindTransmit                          // metasocket.TransmitFunc
	kindLink                              // send observer -> arrival observer, per packet and client
	kindRecv                              // arrival observer -> delivery observer, per packet and client
	numKinds
)

var kindNames = [numKinds]string{
	kindAdapt:         "manager.execute",
	kindPlan:          "planner.plan",
	kindSend:          "transport.send",
	kindPreAction:     "agent.pre_action",
	kindReset:         "agent.reset",
	kindInAction:      "agent.in_action",
	kindResume:        "agent.resume",
	kindPostAction:    "agent.post_action",
	kindRollback:      "agent.rollback",
	kindTeeAppend:     "replica.tee_append",
	kindTeeSync:       "replica.tee_sync",
	kindJournalAppend: "journal.append",
	kindJournalSync:   "journal.sync",
	kindStandbyAppend: "replica.standby_append",
	kindStandbySync:   "replica.standby_sync",
	kindSendFrame:     "metasocket.send_frame",
	kindTransmit:      "metasocket.transmit",
	kindLink:          "netsim.link",
	kindRecv:          "metasocket.recv",
}

// span is one timed call. trace is the adaptation's sequence number for
// control-plane spans and the frame ID for data-plane spans; parent is the
// enclosing span on the same goroutine (0 for a goroutine's outermost
// call). Times are nowNS readings.
type span struct {
	trace      uint64
	id, parent uint32
	kind       spanKind
	start, end int64
}

// clockBase is the origin of every timestamp the benchmark takes.
var clockBase = time.Now()

// nowNS reads the monotonic clock (time.Since uses it) in nanoseconds
// since clockBase.
func nowNS() int64 { return int64(time.Since(clockBase)) }

// tracer keeps spans in a buffer allocated up front and written out when
// the run ends. Once the buffer is full further spans are not kept and
// full reports true; the traced phase ends there.
type tracer struct {
	nextID atomic.Uint32
	full   atomic.Bool

	// adaptTrace and adaptSpan identify the Execute call in progress;
	// teeSpan and frameSpan the Tee.Sync/Append and SendFrame calls in
	// progress, so nested calls on the same goroutine find their parent.
	adaptTrace atomic.Uint64
	adaptSpan  atomic.Uint32
	teeSpan    atomic.Uint32
	frameTrace atomic.Uint64
	frameSpan  atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity)}
}

func (t *tracer) newID() uint32 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, s)
	} else {
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// timeCall runs fn as a span of the given kind and returns its error.
func (t *tracer) timeCall(kind spanKind, trace uint64, parent uint32, open *atomic.Uint32, fn func() error) error {
	id := t.newID()
	if open != nil {
		open.Store(id)
		defer open.Store(0)
	}
	start := nowNS()
	err := fn()
	t.record(span{trace: trace, id: id, parent: parent, kind: kind, start: start, end: nowNS()})
	return err
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans writes every span as one CSV line: trace,id,parent,name,start_ns,end_ns.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,id,parent,name,start_ns,end_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.trace, s.id, s.parent, kindNames[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedEndpoint times every Send. Build it with traceEndpoint.
type tracedEndpoint struct {
	transport.Endpoint
	t       *tracer
	manager bool // the manager's endpoint: its sends nest in the Execute span
}

func (e *tracedEndpoint) Send(msg protocol.Message) error {
	var parent uint32
	if e.manager {
		parent = e.t.adaptSpan.Load()
	}
	return e.t.timeCall(kindSend, e.t.adaptTrace.Load(), parent, nil, func() error { return e.Endpoint.Send(msg) })
}

// traceEndpoint wraps ep so that its sends are timed. The manager and the
// agents switch behaviour on transport.BatchSender and
// transport.SyncEndpoint, which the wrapper does not implement, so it
// refuses an endpoint that does: tracing must not change the program. No
// workload's endpoint (Bus, TCPManager, DialTCP) implements either.
func traceEndpoint(ep transport.Endpoint, t *tracer, manager bool) transport.Endpoint {
	_, isBatch := ep.(transport.BatchSender)
	_, isSync := ep.(transport.SyncEndpoint)
	if isBatch || isSync {
		panic(fmt.Sprintf("adaptbench: cannot trace endpoint %s (%T): it implements BatchSender or SyncEndpoint", ep.Name(), ep))
	}
	return &tracedEndpoint{Endpoint: ep, t: t, manager: manager}
}

// tracedProcess times every agent.LocalProcess hook.
type tracedProcess struct {
	inner agent.LocalProcess
	t     *tracer
}

var _ agent.LocalProcess = tracedProcess{}

func (p tracedProcess) call(kind spanKind, fn func() error) error {
	return p.t.timeCall(kind, p.t.adaptTrace.Load(), 0, nil, fn)
}

func (p tracedProcess) PreAction(step protocol.Step, ops []action.Op) error {
	return p.call(kindPreAction, func() error { return p.inner.PreAction(step, ops) })
}

func (p tracedProcess) Reset(ctx context.Context, step protocol.Step) error {
	return p.call(kindReset, func() error { return p.inner.Reset(ctx, step) })
}

func (p tracedProcess) InAction(step protocol.Step, ops []action.Op) error {
	return p.call(kindInAction, func() error { return p.inner.InAction(step, ops) })
}

func (p tracedProcess) Resume(step protocol.Step) error {
	return p.call(kindResume, func() error { return p.inner.Resume(step) })
}

func (p tracedProcess) PostAction(step protocol.Step, ops []action.Op) error {
	return p.call(kindPostAction, func() error { return p.inner.PostAction(step, ops) })
}

func (p tracedProcess) Rollback(step protocol.Step, ops []action.Op, inActionApplied bool) error {
	return p.call(kindRollback, func() error { return p.inner.Rollback(step, ops, inActionApplied) })
}

// tracedJournal times Append and Sync of a journal.Journal. parent is the
// span its calls nest in (nil: none); open, when set, publishes the span in
// progress so a wrapped inner journal can nest under it.
type tracedJournal struct {
	inner          journal.Journal
	t              *tracer
	appendK, syncK spanKind
	parent, open   *atomic.Uint32
}

var _ journal.Journal = (*tracedJournal)(nil)

func (j *tracedJournal) call(kind spanKind, fn func() error) error {
	var parent uint32
	if j.parent != nil {
		parent = j.parent.Load()
	}
	return j.t.timeCall(kind, j.t.adaptTrace.Load(), parent, j.open, fn)
}

func (j *tracedJournal) Append(rec journal.Record) error {
	return j.call(j.appendK, func() error { return j.inner.Append(rec) })
}

func (j *tracedJournal) Sync() error { return j.call(j.syncK, j.inner.Sync) }

func (j *tracedJournal) Snapshot() ([]journal.Record, error) { return j.inner.Snapshot() }

func (j *tracedJournal) Close() error { return j.inner.Close() }
