// Command safeadaptctl runs the safe-adaptation analysis pipeline on a
// declarative system description and regenerates the paper's tables and
// figures.
//
// Usage:
//
//	safeadaptctl tables                      # Tables 1-2, Fig. 4, MAP of the paper's case study
//	safeadaptctl safe-configs [-f sys.json]  # safe configuration set
//	safeadaptctl sag [-f sys.json]           # SAG in Graphviz DOT
//	safeadaptctl plan [-f sys.json] [-k N]   # MAP and K alternatives
//	safeadaptctl sets [-f sys.json]          # collaborative sets
//	safeadaptctl validate [-f sys.json]      # static diagnosis of the description
//	safeadaptctl simulate [-f sys.json]      # dry-run the adaptation through the protocol
//	safeadaptctl trace [-f sys.json]         # run the adaptation and print its span tree + metrics
//	safeadaptctl check [-depth N] [-fuzz N]  # model-check the protocol across interleavings and failures
//	safeadaptctl check -crash N              # also kill the manager at every journal record boundary
//	safeadaptctl check -fleet [-crash N]     # model-check the hierarchical fleet plane, incl. coordinator crashes
//	safeadaptctl check -churn N              # kill the leader at every boundary and race hot-standby takeovers
//	safeadaptctl journal <file.journal>      # inspect a manager write-ahead log and its recovery state
//	safeadaptctl journal -follow <file>      # tail a live journal as the manager appends records
//	safeadaptctl postmortem -dir <dir>       # merge per-node flight-recorder bundles into a causal timeline
//	safeadaptctl ftdc info <file.ftdc>       # inspect an always-on metrics capture
//	safeadaptctl ftdc decode [-csv] <file>   # dump every recovered capture sample as JSON or CSV
//	safeadaptctl ftdc summary [-json] <file> # per-metric min/max/first/last/rate across the capture
//	safeadaptctl vet [-run names] [-json] [pkgs] # run the safeadaptvet protocol-invariant analyzers
//	                                         # exit 0 clean, 1 findings, 2 load/usage error
//	safeadaptctl watch [-url U] [-once]      # live fleet view from a manager's observability endpoint
//	safeadaptctl template                    # emit the case study as JSON (a spec template)
//
// Without -f, every command analyzes the built-in DSN 2004 case study.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	safeadapt "repro"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "safeadaptctl:", err)
		var ec *exitCodeError
		if errors.As(err, &ec) {
			os.Exit(ec.code)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: safeadaptctl <tables|safe-configs|sag|plan|sets|validate|simulate|trace|check|journal|postmortem|ftdc|vet|watch|template> [flags]")
	}
	cmd, rest := args[0], args[1:]

	if cmd == "check" {
		// check has its own flag set (exploration bounds, seed, replay).
		return check(rest, out)
	}
	if cmd == "journal" {
		// journal has its own flag set (log path, output shape).
		return journalCmd(rest, out)
	}
	if cmd == "postmortem" {
		// postmortem has its own flag set (bundle dir, output shape).
		return postmortem(rest, out)
	}
	if cmd == "ftdc" {
		// ftdc has its own sub-subcommands (info, decode, summary).
		return ftdcCmd(rest, out)
	}
	if cmd == "vet" {
		// vet has its own flag set (analyzer selection, package patterns).
		return vetCmd(rest, out)
	}
	if cmd == "watch" {
		// watch has its own flag set (endpoint URL, poll cadence).
		return watchCmd(rest, out)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	file := fs.String("f", "", "system description JSON (default: built-in case study)")
	k := fs.Int("k", 3, "number of alternative paths (plan)")
	asJSON := fs.Bool("json", false, "machine-readable JSON output (plan, validate, safe-configs)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if cmd == "plan" && *k < 1 {
		return fmt.Errorf("plan: -k must be at least 1, got %d", *k)
	}

	if cmd == "template" {
		data, err := json.MarshalIndent(spec.PaperSystem(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}

	sys, err := loadSystem(*file)
	if err != nil {
		return err
	}

	switch cmd {
	case "tables":
		return printTables(sys, out)
	case "safe-configs":
		if *asJSON {
			return jsonSafeConfigs(sys, out)
		}
		return printSafeConfigs(sys, out)
	case "sag":
		return printSAG(sys, out)
	case "plan":
		if *asJSON {
			return jsonPlan(sys, *k, out)
		}
		return printPlan(sys, *k, out)
	case "sets":
		return printSets(sys, out)
	case "validate":
		if *asJSON {
			return jsonValidation(sys, out)
		}
		return printValidation(sys, out)
	case "simulate":
		return simulate(sys, out)
	case "trace":
		return trace(sys, out)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// jsonSafeConfigs emits the safe configuration set as JSON.
func jsonSafeConfigs(sys *safeadapt.System, out io.Writer) error {
	reg := sys.Registry()
	type row struct {
		Vector     string   `json:"vector"`
		Components []string `json:"components"`
	}
	rows := make([]row, 0, 8)
	for _, c := range sys.SafeConfigurations() {
		rows = append(rows, row{Vector: reg.BitVector(c), Components: reg.NamesOf(c)})
	}
	return writeJSON(out, rows)
}

// jsonPlan emits the MAP and alternatives as JSON.
func jsonPlan(sys *safeadapt.System, k int, out io.Writer) error {
	paths, err := sys.Alternatives(sys.Source(), sys.Target(), k)
	if err != nil {
		return err
	}
	type pathRow struct {
		Actions    []string `json:"actions"`
		CostMillis int64    `json:"costMillis"`
	}
	doc := struct {
		Source string    `json:"source"`
		Target string    `json:"target"`
		Paths  []pathRow `json:"paths"`
	}{
		Source: sys.Registry().BitVector(sys.Source()),
		Target: sys.Registry().BitVector(sys.Target()),
	}
	for _, p := range paths {
		doc.Paths = append(doc.Paths, pathRow{Actions: p.ActionIDs(), CostMillis: p.Cost().Milliseconds()})
	}
	return writeJSON(out, doc)
}

// jsonValidation emits the static diagnosis as JSON; blocking problems
// still yield a non-nil error for the exit code.
func jsonValidation(sys *safeadapt.System, out io.Writer) error {
	a, err := sys.Analyze()
	if err != nil {
		return err
	}
	doc := struct {
		OK                    bool       `json:"ok"`
		SafeCount             int        `json:"safeConfigurations"`
		DeadComponents        []string   `json:"deadComponents,omitempty"`
		UniversalComponents   []string   `json:"universalComponents,omitempty"`
		UnusableActions       []string   `json:"unusableActions,omitempty"`
		UnreachableFromSource int        `json:"unreachableFromSource"`
		TargetReachable       bool       `json:"targetReachable"`
		MAPCostMillis         int64      `json:"mapCostMillis"`
		CollaborativeSets     [][]string `json:"collaborativeSets"`
	}{
		OK:                    a.OK(),
		SafeCount:             a.SafeCount,
		DeadComponents:        a.DeadComponents,
		UniversalComponents:   a.UniversalComponents,
		UnusableActions:       a.UnusableActions,
		UnreachableFromSource: a.UnreachableFromSource,
		TargetReachable:       a.TargetReachable,
		MAPCostMillis:         a.MAPCost.Milliseconds(),
		CollaborativeSets:     a.CollaborativeSets,
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	if !a.OK() {
		return fmt.Errorf("validation found blocking problems")
	}
	return nil
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printValidation runs the static diagnosis and reports it; a blocking
// problem (dead component, unreachable target) yields a non-nil error so
// scripts can gate on the exit code.
func printValidation(sys *safeadapt.System, out io.Writer) error {
	a, err := sys.Analyze()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "safe configurations: %d\n", a.SafeCount)
	fmt.Fprintf(out, "collaborative sets:  %d\n", len(a.CollaborativeSets))
	if len(a.DeadComponents) > 0 {
		fmt.Fprintf(out, "DEAD components (in no safe configuration): %s\n", strings.Join(a.DeadComponents, ", "))
	}
	if len(a.UniversalComponents) > 0 {
		fmt.Fprintf(out, "universal components (never removable): %s\n", strings.Join(a.UniversalComponents, ", "))
	}
	if len(a.UnusableActions) > 0 {
		fmt.Fprintf(out, "unusable actions (no safe-to-safe edge): %s\n", strings.Join(a.UnusableActions, ", "))
	}
	if a.UnreachableFromSource > 0 {
		fmt.Fprintf(out, "safe configurations unreachable from the source: %d\n", a.UnreachableFromSource)
	}
	if a.TargetReachable {
		fmt.Fprintf(out, "target reachable: yes (MAP cost %v)\n", a.MAPCost)
	} else {
		fmt.Fprintln(out, "target reachable: NO")
	}
	if !a.OK() {
		return fmt.Errorf("validation found blocking problems")
	}
	fmt.Fprintln(out, "validation OK")
	return nil
}

func loadSystem(path string) (*safeadapt.System, error) {
	if path == "" {
		return safeadapt.PaperCaseStudy()
	}
	return safeadapt.LoadFile(path)
}

func printSafeConfigs(sys *safeadapt.System, out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "bit vector\tconfiguration")
	for _, c := range sys.SafeConfigurations() {
		reg := sys.Registry()
		fmt.Fprintf(w, "%s\t%s\n", reg.BitVector(c), reg.Format(c))
	}
	return w.Flush()
}

func printSAG(sys *safeadapt.System, out io.Writer) error {
	g, err := sys.Graph()
	if err != nil {
		return err
	}
	fmt.Fprint(out, g.DOT(sys.Name()))
	return nil
}

func printPlan(sys *safeadapt.System, k int, out io.Writer) error {
	paths, err := sys.Alternatives(sys.Source(), sys.Target(), k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "source: %s\n", sys.FormatConfig(sys.Source()))
	fmt.Fprintf(out, "target: %s\n", sys.FormatConfig(sys.Target()))
	for i, p := range paths {
		label := "MAP"
		if i > 0 {
			label = fmt.Sprintf("alt%d", i)
		}
		fmt.Fprintf(out, "%-5s %s\n", label, p)
	}
	return nil
}

func printSets(sys *safeadapt.System, out io.Writer) error {
	for i, set := range sys.CollaborativeSets() {
		fmt.Fprintf(out, "set %d: %s\n", i+1, strings.Join(set, ", "))
	}
	return nil
}

func printTables(sys *safeadapt.System, out io.Writer) error {
	fmt.Fprintln(out, "== Table 1: safe configuration set ==")
	if err := printSafeConfigs(sys, out); err != nil {
		return err
	}

	fmt.Fprintln(out, "\n== Table 2: adaptive actions and costs ==")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "action\toperation\tcost\tdescription")
	for _, a := range sys.Actions() {
		fmt.Fprintf(w, "%s\t%s\t%v\t%s\n", a.ID, a.Operation(), a.Cost, a.Description)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(out, "\n== Figure 4: safe adaptation graph ==")
	g, err := sys.Graph()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d safe configurations, %d adaptation steps\n", g.NumNodes(), g.NumEdges())
	for _, e := range g.EdgeList() {
		fmt.Fprintln(out, " ", e)
	}

	fmt.Fprintln(out, "\n== Minimum adaptation path ==")
	return printPlan(sys, 4, out)
}
