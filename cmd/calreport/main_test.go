package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"calgo"
	"calgo/internal/cliflags"
	"calgo/internal/obs"
)

// writeReportFixture saves a small calgo.report/v1 document and returns
// its path.
func writeReportFixture(t *testing.T, dir string) string {
	t.Helper()
	doc := calgo.NewReport("calcheck", time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	doc.Exit = 1
	doc.Runs = []calgo.RunReport{{Name: "h.txt", Verdict: "VIOLATION", Detail: "no CA-trace agrees"}}
	path := filepath.Join(dir, "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestLoadReport(t *testing.T) {
	path := writeReportFixture(t, t.TempDir())
	doc, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Tool != "calcheck" || doc.Exit != 1 || len(doc.Runs) != 1 {
		t.Errorf("loaded report = %+v", doc)
	}
}

func TestLoadReportRejectsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"something/v9","tool":"x"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}
}

func TestLoadArgValidation(t *testing.T) {
	if _, err := load(nil, "", "", ""); err == nil {
		t.Error("no inputs should be a usage error")
	}
	if _, err := load([]string{"a.json"}, "m.json", "", ""); err == nil {
		t.Error("report file combined with -metrics should be a usage error")
	}
	if _, err := load([]string{"a.json", "b.json"}, "", "", ""); err == nil {
		t.Error("two report files should be a usage error")
	}
}

// TestAssemblePair: a saved -metrics-json document plus a -trace
// JSON-lines file round-trip into one report, with event kinds intact.
func TestAssemblePair(t *testing.T) {
	dir := t.TempDir()

	m := calgo.NewMetrics()
	m.Counter("check.states").Add(42)
	mdoc := cliflags.Report{Tool: "calcheck", ElapsedNS: 1000, Metrics: m.Snapshot()}
	mb, err := json.MarshalIndent(mdoc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	metricsPath := filepath.Join(dir, "m.json")
	if err := os.WriteFile(metricsPath, mb, 0o600); err != nil {
		t.Fatal(err)
	}

	events := []obs.Event{
		{Seq: 1, Kind: obs.EvSearchStart, Arg: 4},
		{Seq: 2, Kind: obs.EvNodeExpand, Depth: 1, Arg: 2},
		{Seq: 3, Kind: obs.EvSearchEnd, Depth: 0, Arg: 17, Verdict: "Unsat"},
	}
	var lines []string
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	tracePath := filepath.Join(dir, "t.jsonl")
	if err := os.WriteFile(tracePath, []byte(strings.Join(lines, "\n")+"\n\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	doc, err := assemble(metricsPath, tracePath, "")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Tool != "calcheck" {
		t.Errorf("tool = %q, want the metrics document's tool", doc.Tool)
	}
	if doc.Metrics == nil || doc.Metrics.Counters["check.states"] != 42 {
		t.Errorf("metrics = %+v", doc.Metrics)
	}
	if doc.FlightTotal != 3 || len(doc.Flight) != 3 {
		t.Fatalf("flight = %d events, total %d", len(doc.Flight), doc.FlightTotal)
	}
	if doc.Flight[0].Kind != obs.EvSearchStart {
		t.Errorf("event kind did not round-trip: %v", doc.Flight[0].Kind)
	}
	if doc.Flight[2].Verdict != "Unsat" {
		t.Errorf("verdict did not round-trip: %q", doc.Flight[2].Verdict)
	}

	md := doc.Markdown()
	for _, want := range []string{"# calcheck run report", "check.states", "42", "SearchEnd", "assembled offline by calreport"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// TestEmitRoundTrip: emitting to a .json path produces a document
// loadReport accepts; any other path gets Markdown.
func TestEmitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := writeReportFixture(t, dir)
	doc, err := loadReport(src)
	if err != nil {
		t.Fatal(err)
	}

	jsonOut := filepath.Join(dir, "out.json")
	if err := emit(doc, jsonOut); err != nil {
		t.Fatal(err)
	}
	re, err := loadReport(jsonOut)
	if err != nil {
		t.Fatalf("re-emitted JSON does not load: %v", err)
	}
	if re.Runs[0].Verdict != "VIOLATION" {
		t.Errorf("round-trip lost the run: %+v", re.Runs)
	}

	mdOut := filepath.Join(dir, "out.md")
	if err := emit(doc, mdOut); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(mdOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "# calcheck run report") || !strings.Contains(string(b), "VIOLATION") {
		t.Errorf("markdown output missing expected content:\n%s", b)
	}
}

func TestLoadTraceBadLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := os.WriteFile(path, []byte("{\"ev\":\"SearchStart\",\"seq\":1}\nnot json\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadTrace(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("bad line not reported with its line number: %v", err)
	}
}

// TestStoreRejectsURLsAndLists: -store takes one directory. A URL or a
// comma-separated list is a usage error (exit 2), and no directory
// named after it is created.
func TestStoreRejectsURLsAndLists(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best-effort restore
	oldArgs, oldCmd := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldCmd })

	for _, spec := range []string{"http://127.0.0.1:1", "https://h:9/", "a,b"} {
		flag.CommandLine = flag.NewFlagSet("calreport", flag.ContinueOnError)
		os.Args = []string{"calreport", "-store", spec, "-query", "runs"}
		if got := run(); got != 2 {
			t.Errorf("-store %q: exit %d, want 2", spec, got)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected specs left %d entries behind, first %q", len(entries), entries[0].Name())
	}
}
