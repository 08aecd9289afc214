// Command adaptbench is the repository's end-to-end benchmark. It runs one
// workload against the real planner, manager, agent, transport, journal,
// replica, adapters, metasocket, netsim and video packages and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run measures the workload untraced and then traced (a
// fresh deployment whose layers are wrapped by timing shims), and reports
// the per-layer metrics derived from the spans plus the tracing overhead.
// The line before the result describes the host and the run.
//
// Workloads:
//
//	adapt-bus      closed loop, one client, paper request and its mirror over
//	               the in-memory Bus, no-op hooks, no journal
//	adapt-durable  the same loop over loopback TCP, the manager journaling to
//	               a replica.Tee over a journal.File with one hot standby
//	video-swap     open loop: 500 frames/s of 2 KiB multicast over netsim to
//	               two clients, an adaptation every 250 ms
//
// Usage (from the repository root; see run.py, which also builds it):
//
//	adaptbench -workload adapt-bus -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "adapt-bus, adapt-durable or video-swap")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "adaptbench"), "directory for journals and span files")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "adaptbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		return 2
	}

	info := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"host": fingerprint(o.dir),
	}
	dur := time.Duration(o.seconds) * time.Second
	var res result
	var err error
	if trace == 1 {
		res, err = tracedRun(o, dur, info)
	} else {
		var p *phase
		p, err = runPhase(o, dur, false, workloads[o.workload].setups)
		all := endToEnd(o, p)
		res = result{Attempted: p.attempted, Failed: p.failed, Metrics: make(map[string]metric)}
		for _, name := range gated {
			res.Metrics[name] = all[name]
			delete(all, name)
		}
		info["ungated"] = all
		describe(info, o, p)
	}
	res.Correct = err == nil && res.Failed == 0 && res.Attempted > 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		info["error"] = err.Error()
	}
	printJSON(info)
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only numbers and strings: a NaN here is a bug
	}
	fmt.Println(string(b))
}

// describe adds the run's sample counts and generator lateness to info.
func describe(info map[string]any, o options, p *phase) {
	info["setups"] = map[string]any{"n": len(p.setupS), "p50_s": medianFloat(p.setupS), "max_s": slices.Max(p.setupS)}
	info["adaptations"] = p.adapts()
	if o.video() {
		info["frames"] = p.frames
		info["gen.late_max_in_adapt_ms"] = float64(p.lateMax[0]) / nsPerMS
		info["gen.late_max_out_adapt_ms"] = float64(p.lateMax[1]) / nsPerMS
	}
}

// gated names the end-to-end metrics the result reports, which
// BENCHMARK.json bounds. They are the ones whose run-to-run spread stays
// well inside the largest allowed bound (0.25) on every workload of a
// shared 2-vCPU VM. The latency figures are printed with every run in the
// info line instead: CPU steal and fsync stalls on a shared disk move
// adapt-durable's from run to run by 25-40% (IQR over median of ten
// runs), and the tails and closed-loop throughput (1/mean latency) of
// every workload by more.
var gated = []string{"setup_s", "cpu_us_per_op", "heap_growth_b_per_op"}

// endToEnd computes the end-to-end figures of a phase; the same names
// mean the same on every workload:
//
//   - op is an adaptation in adapt-*, and a frame in video-swap (latency per
//     frame and client, from the frame's due time to its last fragment's
//     delivery);
//   - swap_gap is, per adaptation, the longest interruption of the
//     system's traffic while it ran: in video-swap the longest interval
//     between consecutive complete frames at either client; in adapt-*,
//     which carry no traffic, the longest window a step held processes
//     blocked (StepReport.BlockedFor).
//
// Medians and CPU per op are the median over the window's slices; the
// tail and throughput are over the whole window.
func endToEnd(o options, p *phase) map[string]metric {
	opLat := p.opLat(o)
	var adaptP50, opP50, gapP50, cpu []float64
	m := p.s.marks
	for k := 0; k+1 < len(m); k++ {
		alo, ahi := int(m[k].adapts), min(int(m[k+1].adapts), len(p.adaptLat))
		olo, ohi := alo, ahi
		if o.video() && k+1 < len(p.delayMarks) {
			olo, ohi = p.delayMarks[k], p.delayMarks[k+1]
		}
		adaptP50 = append(adaptP50, quantile(p.adaptLat[alo:ahi], 0.5)/nsPerMS)
		opP50 = append(opP50, quantile(opLat[olo:ohi], 0.5)/nsPerMS)
		gapP50 = append(gapP50, quantile(p.gaps[alo:ahi], 0.5)/nsPerMS)
		cpu = append(cpu, ratio(float64(m[k+1].cpu-m[k].cpu)/nsPerUS, float64(m[k+1].ops-m[k].ops)))
	}
	whole := append([]int64(nil), opLat...) // quantile sorts; the slices above needed the original order
	last := len(m) - 1
	return map[string]metric{
		"setup_s":              {slices.Min(p.setupS), "s"},
		"cpu_us_per_op":        {medianFloat(cpu), "us"},
		"heap_growth_b_per_op": {p.heapGrowth, "B"},
		"adapt_p50_ms":         {medianFloat(adaptP50), "ms"},
		"adapt_per_s":          {ratio(float64(m[last].adapts-m[0].adapts), float64(m[last].at-m[0].at)/1e9), "1/s"},
		"op_p50_ms":            {medianFloat(opP50), "ms"},
		"op_p90_ms":            {quantile(whole, 0.9) / nsPerMS, "ms"},
		"op_p99_ms":            {quantile(whole, 0.99) / nsPerMS, "ms"},
		"swap_gap_p50_ms":      {medianFloat(gapP50), "ms"},
	}
}

// tracedRun measures the workload untraced and then traced, each for half
// the run, and derives the per-layer metrics.
func tracedRun(o options, dur time.Duration, info map[string]any) (result, error) {
	plain, err := runPhase(o, dur/2, false, 1)
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	if err != nil {
		return res, err
	}
	traced, err := runPhase(o, dur/2, true, 1)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if err != nil {
		return res, err
	}
	describe(info, o, plain)
	spansPath := filepath.Join(o.dir, "spans-"+o.workload+".csv")
	if err := traced.t.writeSpans(spansPath); err != nil {
		return res, err
	}
	info["spans_file"] = spansPath
	info["traced_adaptations"] = traced.adapts()
	info["spans"] = len(traced.t.snapshot())
	res.Metrics = perLayer(o, plain, traced)
	return res, nil
}

// perLayer computes the per-layer metrics: span-derived ones from the
// traced phase, Go runtime, generator and data-plane counters from the
// untraced one, and the tracing overhead as traced minus untraced.
func perLayer(o options, plain, traced *phase) map[string]metric {
	a := analyze(traced)
	adapts := float64(a.adapts)
	us := func(xs []int64, q float64) metric { return metric{quantile(xs, q) / nsPerUS, "us"} }
	count := func(v float64) metric { return metric{v, "count"} }
	ops := float64(plain.ops(o))
	plainE2E, tracedE2E := endToEnd(o, plain), endToEnd(o, traced)
	return map[string]metric{
		"planner.plan_us":             us(a.durs[kindPlan], 0.5),
		"manager.steps_per_adapt":     count(ratio(float64(traced.steps), float64(traced.adapts()))),
		"manager.step_success_ratio":  {ratio(float64(traced.stepsDone), float64(traced.steps)), "ratio"},
		"manager.step_blocked_us_p50": us(traced.stepBlocked, 0.5),
		"manager.step_blocked_us_p99": us(traced.stepBlocked, 0.99),
		"manager.self_us_per_adapt":   {ratio(a.adaptSelf-a.planTotal, adapts) / nsPerUS, "us"},

		"transport.sends_per_adapt": count(ratio(float64(len(a.durs[kindSend])), adapts)),
		"transport.send_us_p50":     us(a.durs[kindSend], 0.5),
		"transport.send_us_p99":     us(a.durs[kindSend], 0.99),

		"agent.reset_us_p50":    us(a.durs[kindReset], 0.5),
		"agent.reset_us_p99":    us(a.durs[kindReset], 0.99),
		"agent.inaction_us_p50": us(a.durs[kindInAction], 0.5),
		"agent.resume_us_p50":   us(a.durs[kindResume], 0.5),

		"journal.appends_per_adapt": count(ratio(float64(len(a.durs[kindJournalAppend])), adapts)),
		"journal.syncs_per_adapt":   count(ratio(float64(len(a.durs[kindJournalSync])), adapts)),
		"journal.append_us_p50":     us(a.durs[kindJournalAppend], 0.5),
		"journal.sync_us_p50":       us(a.durs[kindJournalSync], 0.5),
		"journal.sync_us_p99":       us(a.durs[kindJournalSync], 0.99),
		"journal.bytes_per_adapt":   {ratio(float64(traced.journalBytes), float64(traced.adapts())), "B"},

		"replica.commit_us_p50":       us(a.durs[kindTeeSync], 0.5),
		"replica.commit_us_p99":       us(a.durs[kindTeeSync], 0.99),
		"replica.ship_us_p50":         us(a.teeSyncSelf, 0.5),
		"replica.standby_sync_us_p50": us(a.durs[kindStandbySync], 0.5),
		"replica.standbys_end":        count(float64(plain.standbysEnd)),

		"metasocket.send_frame_us_p50": us(a.durs[kindSendFrame], 0.5),
		"metasocket.send_frame_us_p99": us(a.durs[kindSendFrame], 0.99),
		"metasocket.recv_us_p50":       us(a.durs[kindRecv], 0.5),
		"metasocket.decode_errors":     count(float64(plain.stream.decodeErrors)),

		"netsim.link_us_p50": us(a.durs[kindLink], 0.5),
		"netsim.link_us_p99": us(a.durs[kindLink], 0.99),
		"netsim.dropped":     count(float64(plain.stream.dropped)),

		"video.frames_corrupted":  count(float64(plain.stream.corrupted)),
		"video.frames_incomplete": count(float64(plain.stream.incomplete)),
		"video.packets_undecoded": count(float64(plain.stream.undecoded)),

		"go.allocs_per_op":  count(ratio(float64(plain.end.mallocs-plain.start.mallocs), ops)),
		"go.alloc_b_per_op": {ratio(float64(plain.end.bytes-plain.start.bytes), ops), "B"},
		"go.gc_per_kop":     count(ratio(1000*float64(plain.end.numGC-plain.start.numGC), ops)),

		"gen.late_max_ms":           {float64(max(plain.lateMax[0], plain.lateMax[1])) / nsPerMS, "ms"},
		"gen.late_max_in_adapt_ms":  {float64(plain.lateMax[0]) / nsPerMS, "ms"},
		"gen.late_max_out_adapt_ms": {float64(plain.lateMax[1]) / nsPerMS, "ms"},

		"trace.overhead_adapt_p50_pct": {100 * ratio(tracedE2E["adapt_p50_ms"].Value-plainE2E["adapt_p50_ms"].Value, plainE2E["adapt_p50_ms"].Value), "%"},
		"trace.overhead_cpu_us_per_op": {tracedE2E["cpu_us_per_op"].Value - plainE2E["cpu_us_per_op"].Value, "us"},
	}
}

// spanStats is the traced phase's spans reduced per kind. Only spans of
// measured adaptations and frames count; warm-up stragglers are skipped.
type spanStats struct {
	spans       int
	adapts      int
	durs        [numKinds][]int64
	teeSyncSelf []int64 // Tee.Sync minus the inner journal sync: shipping to the standby
	adaptSelf   float64 // total Execute time minus its journal and send children, ns
	planTotal   float64 // total Planner.Plan time, ns
}

func analyze(p *phase) spanStats {
	var a spanStats
	spans := p.t.snapshot()
	dataPlane := func(k spanKind) bool { return k >= kindSendFrame }
	keep := func(s span) bool {
		if dataPlane(s.kind) {
			return s.trace >= uint64(p.firstFrame) && s.trace < uint64(p.firstFrame)+uint64(p.frames)
		}
		return s.trace >= p.firstTrace
	}
	// A span's self time is its duration minus the part its children
	// cover; children of one parent run one after another on the parent's
	// goroutine, so their clipped durations add up.
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		index[s.id] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if i, ok := index[s.parent]; ok && s.parent != 0 {
			par := spans[i]
			lo, hi := max(s.start, par.start), min(s.end, par.end)
			if hi > lo {
				covered[i] += hi - lo
			}
		}
	}
	for i, s := range spans {
		if !keep(s) {
			continue
		}
		a.spans++
		d := s.end - s.start
		a.durs[s.kind] = append(a.durs[s.kind], d)
		switch s.kind {
		case kindAdapt:
			a.adapts++
			a.adaptSelf += float64(d - covered[i])
		case kindPlan:
			a.planTotal += float64(d)
		case kindTeeSync:
			a.teeSyncSelf = append(a.teeSyncSelf, d-covered[i])
		}
	}
	return a
}
