package main

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// fakeEndpoint counts the sends the wrapper forwards.
type fakeEndpoint struct{ sends int }

func (e *fakeEndpoint) Name() string                   { return "fake" }
func (e *fakeEndpoint) Send(protocol.Message) error    { e.sends++; return nil }
func (e *fakeEndpoint) Inbox() <-chan protocol.Message { return nil }
func (e *fakeEndpoint) Close() error                   { return nil }

type fakeBatch struct{ *fakeEndpoint }

func (fakeBatch) SendBatch([]protocol.Message) error { return nil }

type fakeSync struct{ *fakeEndpoint }

func (fakeSync) Recv(context.Context, time.Time) (protocol.Message, transport.RecvStatus) {
	return protocol.Message{}, transport.RecvOK
}

// TestTraceEndpoint: the timing wrapper forwards and times sends, and
// refuses an endpoint whose optional interfaces it would hide from the
// manager.
func TestTraceEndpoint(t *testing.T) {
	f := &fakeEndpoint{}
	tr := newTracer(16)
	if err := traceEndpoint(f, tr, true).Send(protocol.Message{}); err != nil {
		t.Fatal(err)
	}
	if f.sends != 1 || len(tr.snapshot()) != 1 {
		t.Fatalf("%d sends forwarded, %d spans; want 1 and 1", f.sends, len(tr.snapshot()))
	}
	for _, ep := range []transport.Endpoint{fakeBatch{f}, fakeSync{f}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("traceEndpoint(%T) did not refuse it", ep)
				}
			}()
			traceEndpoint(ep, tr, false)
		}()
	}
}

// TestMirrorPlanUndoesForwardPlan: the mirror request realizes the inverse
// of every action of the forward plan, and the planner returns both
// expected plans.
func TestMirrorPlanUndoesForwardPlan(t *testing.T) {
	sc, err := newScenario()
	if err != nil {
		t.Fatal(err)
	}
	var inverses []string
	for _, id := range forwardPlan {
		inverses = append(inverses, "R"+id[1:])
	}
	slices.Sort(inverses)
	mirror := slices.Clone(mirrorPlan)
	slices.Sort(mirror)
	if !slices.Equal(inverses, mirror) {
		t.Fatalf("mirror plan %v does not undo forward plan %v", mirrorPlan, forwardPlan)
	}
	for _, req := range sc.requests {
		path, err := sc.plan.Plan(req.source, req.target)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(path.ActionIDs(), req.plan) || path.Cost() != planCost {
			t.Fatalf("plan %v at %v, want %v at %v", path.ActionIDs(), path.Cost(), req.plan, planCost)
		}
	}
}

// observed is what must not depend on tracing: the plans, the step
// sequences and, with a journal, the journal's record kinds.
type observed struct {
	plans [][]string
	steps []string
	kinds []journal.Kind
}

func observe(t *testing.T, workload string, traced bool, adaptations int) observed {
	t.Helper()
	o := options{workload: workload, seed: 7, dir: t.TempDir()}
	sc, err := newScenario()
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{sc: sc}
	if traced {
		d.t = newTracer(spanCapacity)
	}
	var log *frameLog
	if o.video() {
		log = newFrameLog(64, o.seed, traced)
	}
	if err := workloads[workload].setup(d, o, log, 0); err != nil {
		_ = d.close()
		t.Fatal(err)
	}
	var got observed
	for i := 0; i < adaptations; i++ {
		res, _, err := d.adapt(i)
		if err != nil {
			_ = d.close()
			t.Fatalf("adaptation %d: %v", i, err)
		}
		got.plans = append(got.plans, res.Path.ActionIDs())
		for _, s := range res.Steps {
			got.steps = append(got.steps, fmt.Sprintf("%s %s->%s #%d %s", s.ActionID, s.From, s.To, s.Attempt, s.Outcome))
		}
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if d.leaderPath != "" {
		if err := d.checkJournals(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := journal.ReadFile(d.leaderPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got.kinds = append(got.kinds, r.Kind)
		}
	}
	if traced && len(d.t.snapshot()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	return got
}

// TestTracingDoesNotChangeTheProgram runs each workload's deployment
// untraced and traced with the same seed and compares what the program
// decided.
func TestTracingDoesNotChangeTheProgram(t *testing.T) {
	for _, w := range []string{"adapt-bus", "adapt-durable", "video-swap"} {
		t.Run(w, func(t *testing.T) {
			n := 6
			if w == "video-swap" {
				n = 2
			}
			plain, traced := observe(t, w, false, n), observe(t, w, true, n)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("traced run differs:\nuntraced %+v\ntraced   %+v", plain, traced)
			}
			if w == "adapt-durable" && len(plain.kinds) == 0 {
				t.Fatal("no journal records compared")
			}
		})
	}
}

// TestWorkloadsRunClean runs every workload for one second, untraced and
// traced, through the end-of-run oracle.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for several seconds")
	}
	for _, w := range []string{"adapt-bus", "adapt-durable", "video-swap"} {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 3, seconds: 1, dir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				p, err := runPhase(o, time.Second, traced, 2)
				if err != nil || p.failed != 0 || p.attempted == 0 || p.adapts() == 0 {
					t.Fatalf("traced=%v: err %v, %d of %d failed, %d adaptations", traced, err, p.failed, p.attempted, p.adapts())
				}
				if o.video() && len(p.frameDelay) != 2*p.frames {
					t.Fatalf("%d frame deliveries timed, want %d", len(p.frameDelay), 2*p.frames)
				}
				if traced {
					if a := analyze(p); a.spans == 0 || a.adapts == 0 {
						t.Fatalf("%d spans and %d adaptations kept from the measured window", a.spans, a.adapts)
					}
				}
			}
		})
	}
}
