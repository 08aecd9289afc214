package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestTablesCommand(t *testing.T) {
	out := runCmd(t, "tables")
	for _, want := range []string{
		"== Table 1: safe configuration set ==",
		"0100101",
		"1010010",
		"== Table 2: adaptive actions and costs ==",
		"A13", "150ms",
		"== Figure 4: safe adaptation graph ==",
		"8 safe configurations, 16 adaptation steps",
		"== Minimum adaptation path ==",
		"(cost 50ms)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestSafeConfigsCommand(t *testing.T) {
	out := runCmd(t, "safe-configs")
	if strings.Count(out, "\n") != 9 { // header + 8 rows
		t.Errorf("safe-configs output:\n%s", out)
	}
}

func TestSAGCommand(t *testing.T) {
	out := runCmd(t, "sag")
	if !strings.HasPrefix(out, `digraph "dsn04-video-multicast"`) {
		t.Errorf("sag output should be DOT, got:\n%.80s", out)
	}
	if !strings.Contains(out, "A17: +D5") {
		t.Error("sag output missing edge labels")
	}
}

func TestPlanCommandWithK(t *testing.T) {
	out := runCmd(t, "plan", "-k", "2")
	if !strings.Contains(out, "MAP") || !strings.Contains(out, "alt1") {
		t.Errorf("plan output:\n%s", out)
	}
	if strings.Contains(out, "alt2") {
		t.Error("plan -k 2 should show only one alternative")
	}
}

func TestSetsCommand(t *testing.T) {
	out := runCmd(t, "sets")
	if !strings.Contains(out, "set 1:") {
		t.Errorf("sets output:\n%s", out)
	}
}

func TestTemplateRoundTripsThroughFileFlag(t *testing.T) {
	tpl := runCmd(t, "template")
	var sys spec.System
	if err := json.Unmarshal([]byte(tpl), &sys); err != nil {
		t.Fatalf("template is not valid JSON: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	if err := os.WriteFile(path, []byte(tpl), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "plan", "-f", path)
	if !strings.Contains(out, "(cost 50ms)") {
		t.Errorf("plan over template file:\n%s", out)
	}
}

func TestValidateCommand(t *testing.T) {
	out := runCmd(t, "validate")
	for _, want := range []string{
		"safe configurations: 8",
		"unusable actions",
		"A3", "A5",
		"target reachable: yes (MAP cost 50ms)",
		"validation OK",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("validate output missing %q:\n%s", want, out)
		}
	}
}

func TestValidateCommandFailsOnBrokenSpec(t *testing.T) {
	// A spec whose target is unreachable must fail validation.
	broken := spec.PaperSystem()
	broken.Actions = broken.Actions[:1] // only A1 remains; no route
	data, err := json.Marshal(broken)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "broken.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"validate", "-f", path}, &sb); err == nil {
		t.Errorf("validate must fail for unreachable target; output:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "target reachable: NO") {
		t.Errorf("output should report unreachability:\n%s", sb.String())
	}
}

func TestSimulateCommand(t *testing.T) {
	out := runCmd(t, "simulate")
	for _, want := range []string{
		"MAP:",
		"(cost 50ms)",
		"[handheld] in-action A2: apply [D1 -> D2]",
		"[server] reset: safe state reached for A2", // conscripted via dataflow
		"adaptation completed=true",
		"final: 1010010 {D5,D3,E2}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("simulate output missing %q", want)
		}
	}
}

func TestJSONOutputs(t *testing.T) {
	// plan -json
	var plan struct {
		Source string `json:"source"`
		Paths  []struct {
			Actions    []string `json:"actions"`
			CostMillis int64    `json:"costMillis"`
		} `json:"paths"`
	}
	if err := json.Unmarshal([]byte(runCmd(t, "plan", "-json", "-k", "2")), &plan); err != nil {
		t.Fatalf("plan -json: %v", err)
	}
	if plan.Source != "0100101" || len(plan.Paths) != 2 || plan.Paths[0].CostMillis != 50 {
		t.Errorf("plan doc: %+v", plan)
	}

	// validate -json
	var val struct {
		OK            bool  `json:"ok"`
		SafeCount     int   `json:"safeConfigurations"`
		MAPCostMillis int64 `json:"mapCostMillis"`
	}
	if err := json.Unmarshal([]byte(runCmd(t, "validate", "-json")), &val); err != nil {
		t.Fatalf("validate -json: %v", err)
	}
	if !val.OK || val.SafeCount != 8 || val.MAPCostMillis != 50 {
		t.Errorf("validate doc: %+v", val)
	}

	// safe-configs -json
	var rows []struct {
		Vector     string   `json:"vector"`
		Components []string `json:"components"`
	}
	if err := json.Unmarshal([]byte(runCmd(t, "safe-configs", "-json")), &rows); err != nil {
		t.Fatalf("safe-configs -json: %v", err)
	}
	if len(rows) != 8 || rows[0].Vector != "0100101" {
		t.Errorf("safe-configs doc: %+v", rows)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no arguments should fail with usage")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{"plan", "-f", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing file should fail")
	}
	for _, args := range [][]string{
		{"plan", "-k", "0"},
		{"plan", "-k", "-2"},
		{"plan", "-json", "-k", "0"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v should fail: a plan needs at least one path", args)
		}
	}
}
