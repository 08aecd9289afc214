package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/action"
	"repro/internal/agent"
	"repro/internal/journal"
	"repro/internal/manager"
	"repro/internal/protocol"
	"repro/internal/replica"
	"repro/internal/transport"
)

// stepTimeout bounds every protocol wait; a clean run never comes near it.
const stepTimeout = 5 * time.Second

// nopProcess is the adapt-* workloads' LocalProcess: the hooks do no work,
// so only the control plane is measured.
type nopProcess struct{}

func (nopProcess) PreAction(protocol.Step, []action.Op) error      { return nil }
func (nopProcess) Reset(context.Context, protocol.Step) error      { return nil }
func (nopProcess) InAction(protocol.Step, []action.Op) error       { return nil }
func (nopProcess) Resume(protocol.Step) error                      { return nil }
func (nopProcess) PostAction(protocol.Step, []action.Op) error     { return nil }
func (nopProcess) Rollback(protocol.Step, []action.Op, bool) error { return nil }

// deployment is one running system: manager, agents, transport and, for
// adapt-durable, the journal pair; video-swap adds the video system.
type deployment struct {
	sc      *scenario
	mgr     *manager.Manager
	t       *tracer        // nil when untraced
	closers []func() error // run in reverse order by close

	// adapt-durable only.
	tee                     *replica.Tee
	leaderPath, standbyPath string

	// video-swap only.
	video *videoSystem
}

func (d *deployment) onClose(f func() error) { d.closers = append(d.closers, f) }

// close stops everything in reverse order of construction.
func (d *deployment) close() error {
	var first error
	for i := len(d.closers) - 1; i >= 0; i-- {
		if err := d.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

// endpoint and process apply the timing wrappers when the run is traced.
func (d *deployment) endpoint(ep transport.Endpoint, manager bool) transport.Endpoint {
	if d.t == nil {
		return ep
	}
	return traceEndpoint(ep, d.t, manager)
}

func (d *deployment) process(p agent.LocalProcess) agent.LocalProcess {
	if d.t == nil {
		return p
	}
	return tracedProcess{inner: p, t: d.t}
}

// startAgents runs one agent per process over the given endpoints.
func (d *deployment) startAgents(eps map[string]transport.Endpoint, procs map[string]agent.LocalProcess) error {
	for _, name := range d.sc.reg.Processes() {
		ag, err := agent.New(name, d.endpoint(eps[name], false), d.process(procs[name]), agent.Options{
			ResetTimeout: stepTimeout,
			ProcessOf:    d.sc.processOf,
		})
		if err != nil {
			return err
		}
		go ag.Run()
		d.onClose(func() error { ag.Close(); return nil })
	}
	return nil
}

// listenTCP starts the manager's TCP endpoint and connects one agent
// endpoint per process to it.
func (d *deployment) listenTCP() (*transport.TCPManager, map[string]transport.Endpoint, error) {
	mgrEP, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	d.onClose(mgrEP.Close)
	eps := make(map[string]transport.Endpoint)
	for _, name := range d.sc.reg.Processes() {
		ep, err := transport.DialTCP(name, mgrEP.Addr())
		if err != nil {
			return nil, nil, err
		}
		d.onClose(ep.Close)
		eps[name] = ep
	}
	if err := mgrEP.WaitForAgents(stepTimeout, d.sc.reg.Processes()...); err != nil {
		return nil, nil, err
	}
	return mgrEP, eps, nil
}

// nopProcesses gives every process the no-op hooks.
func (d *deployment) nopProcesses() map[string]agent.LocalProcess {
	procs := make(map[string]agent.LocalProcess)
	for _, name := range d.sc.reg.Processes() {
		procs[name] = nopProcess{}
	}
	return procs
}

// setupBus builds the adapt-bus deployment: in-memory Bus, no-op hooks, no
// journal. On error the caller closes the partial deployment.
func setupBus(d *deployment, seed int64) error {
	bus := transport.NewBus()
	d.onClose(bus.Close)
	mgrEP, err := bus.Endpoint(protocol.ManagerName)
	if err != nil {
		return err
	}
	eps := make(map[string]transport.Endpoint)
	for _, name := range d.sc.reg.Processes() {
		if eps[name], err = bus.Endpoint(name); err != nil {
			return err
		}
	}
	if err := d.startAgents(eps, d.nopProcesses()); err != nil {
		return err
	}
	d.mgr, err = manager.New(d.endpoint(mgrEP, true), d.sc.plan, manager.Options{
		StepTimeout: stepTimeout,
		BackoffSeed: seed,
	})
	return err
}

// setupDurable builds the adapt-durable deployment: loopback TCP, no-op
// hooks, and the manager journaling through openJournal.
func setupDurable(d *deployment, seed int64, dir string, idx int) error {
	mgrEP, eps, err := d.listenTCP()
	if err != nil {
		return err
	}
	if err := d.startAgents(eps, d.nopProcesses()); err != nil {
		return err
	}
	j, err := d.openJournal(dir, idx)
	if err != nil {
		return err
	}
	d.mgr, err = manager.New(d.endpoint(mgrEP, true), d.sc.plan, manager.Options{
		StepTimeout: stepTimeout,
		BackoffSeed: seed,
		Journal:     j,
	})
	return err
}

// openJournal builds the production journal shape and returns the
// manager's journal: a replica.Tee over a journal.File, with one hot
// standby attached over TCP that journals to its own file.
func (d *deployment) openJournal(dir string, idx int) (journal.Journal, error) {
	d.leaderPath = filepath.Join(dir, fmt.Sprintf("leader-%d.journal", idx))
	d.standbyPath = filepath.Join(dir, fmt.Sprintf("standby-%d.journal", idx))
	d.removeJournals()
	t := d.t
	leaderFile, err := journal.OpenFile(d.leaderPath)
	if err != nil {
		return nil, err
	}
	var leaderJ journal.Journal = leaderFile
	if t != nil {
		leaderJ = &tracedJournal{inner: leaderFile, t: t, appendK: kindJournalAppend, syncK: kindJournalSync, parent: &t.teeSpan}
	}
	tee, err := replica.NewTee(leaderJ, nil)
	if err != nil {
		_ = leaderFile.Close()
		return nil, err
	}
	d.onClose(tee.Close) // closes leaderFile too
	d.tee = tee
	leader, err := replica.Serve(tee, "127.0.0.1:0", replica.LeaderOptions{})
	if err != nil {
		return nil, err
	}
	d.onClose(leader.Close)
	standbyFile, err := journal.OpenFile(d.standbyPath)
	if err != nil {
		return nil, err
	}
	d.onClose(standbyFile.Close)
	var standbyJ journal.Journal = standbyFile
	if t != nil {
		standbyJ = &tracedJournal{inner: standbyFile, t: t, appendK: kindStandbyAppend, syncK: kindStandbySync}
	}
	standby, err := replica.ConnectStandby(leader.Addr(), replica.StandbyOptions{Name: "standby-1", Rank: 1, Journal: standbyJ})
	if err != nil {
		return nil, err
	}
	d.onClose(standby.Close)
	if err := waitFor(func() bool { return tee.Standbys() == 1 }); err != nil {
		return nil, fmt.Errorf("standby did not attach: %w", err)
	}
	if t != nil {
		return &tracedJournal{inner: tee, t: t, appendK: kindTeeAppend, syncK: kindTeeSync, parent: &t.adaptSpan, open: &t.teeSpan}, nil
	}
	return tee, nil
}

// waitFor polls cond for up to stepTimeout.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(stepTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// adapt runs request number i (forward when even, mirror when odd) and
// checks its result. In a traced run it first times Planner.Plan on the
// same request, then times the Execute call as the adaptation's root span.
func (d *deployment) adapt(i int) (manager.Result, time.Duration, error) {
	req := d.sc.requests[i%2]
	t := d.t
	var id uint32
	var start int64
	if t != nil {
		seq := uint64(i + 1)
		t.adaptTrace.Store(seq)
		if err := t.timeCall(kindPlan, seq, 0, nil, func() error {
			_, err := d.sc.plan.Plan(req.source, req.target)
			return err
		}); err != nil {
			return manager.Result{}, 0, err
		}
		id = t.newID()
		t.adaptSpan.Store(id)
		start = nowNS()
	}
	t0 := time.Now()
	res, err := d.mgr.Execute(req.source, req.target)
	lat := time.Since(t0)
	if t != nil {
		t.record(span{trace: uint64(i + 1), id: id, kind: kindAdapt, start: start, end: nowNS()})
		t.adaptSpan.Store(0)
	}
	return res, lat, checkResult(req, res, err)
}

// checkJournals is adapt-durable's end-of-run oracle, run after close: no
// torn tail in either journal, and the standby holds exactly the leader's
// records.
func (d *deployment) checkJournals() error {
	leader, torn, err := journal.ReadFile(d.leaderPath)
	if err != nil {
		return err
	}
	if torn != 0 {
		return fmt.Errorf("leader journal has a torn tail of %d bytes", torn)
	}
	standby, torn, err := journal.ReadFile(d.standbyPath)
	if err != nil {
		return err
	}
	if torn != 0 {
		return fmt.Errorf("standby journal has a torn tail of %d bytes", torn)
	}
	if len(leader) == 0 || !reflect.DeepEqual(leader, standby) {
		return fmt.Errorf("standby journal (%d records) differs from the leader's (%d records)", len(standby), len(leader))
	}
	return nil
}

// removeJournals deletes the journal files of a finished deployment.
func (d *deployment) removeJournals() {
	for _, p := range []string{d.leaderPath, d.standbyPath} {
		if p != "" {
			_ = os.Remove(p) // best effort: the files live in the build directory
		}
	}
}
