package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"calgo"
	"calgo/internal/cliflags"
)

func TestGCounts(t *testing.T) {
	old := *maxG
	defer func() { *maxG = old }()
	*maxG = 32
	got := gCounts()
	want := []int{1, 2, 4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("gCounts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gCounts = %v, want %v", got, want)
		}
	}
}

func TestSweepCountsSuccesses(t *testing.T) {
	old := *duration
	defer func() { *duration = old }()
	*duration = 10 * time.Millisecond
	// Alternate success/failure per call: roughly half the rate.
	var parity [64]bool
	all := sweep([]int{1, 2}, func(tid calgo.ThreadID) bool {
		parity[tid] = !parity[tid]
		return parity[tid]
	})
	if len(all) != 2 {
		t.Fatalf("sweep returned %d cells", len(all))
	}
	for i, v := range all {
		if v <= 0 {
			t.Errorf("cell %d = %f, want positive rate", i, v)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	oldTable := *table
	defer func() { *table = oldTable }()
	*table = "bogus"
	if err := runTables(); err == nil {
		t.Error("unknown table should error")
	}
}

// TestJSONReport pins the -json schema: table IDs, column labels and one
// rate per column, round-tripping through the encoder.
func TestJSONReport(t *testing.T) {
	oldReport := report
	defer func() { report = oldReport }()
	report = jsonReport{}
	recordTable("B1: stack throughput", "goroutines", []int{1, 2},
		map[string][]float64{"treiber (lock-free)": {100, 200}},
		[]string{"treiber (lock-free)"})
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got jsonReport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("wrote invalid JSON: %v", err)
	}
	if len(got.Tables) != 1 || got.Tables[0].ID != "B1" || got.Tables[0].ColumnLabel != "goroutines" {
		t.Errorf("tables = %+v", got.Tables)
	}
	if got.GOMAXPROCS < 1 || got.Generated == "" || got.Window == "" {
		t.Errorf("metadata missing: %+v", got)
	}
	row := got.Tables[0].Rows[0]
	if row.Name != "treiber (lock-free)" || len(row.OpsPerSec) != 2 || row.OpsPerSec[1] != 200 {
		t.Errorf("row = %+v", row)
	}
}

func TestBenchTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock sweeps in -short mode")
	}
	oldDur, oldMax := *duration, *maxG
	defer func() { *duration, *maxG = oldDur, oldMax }()
	*duration = 5 * time.Millisecond
	*maxG = 2
	benchStacks()
	benchExchangers()
	benchSyncQueue()
	benchQueues()
	benchElimK()
}

// TestAutoRejectsURL: -auto takes a directory. A URL fails resolveAuto
// (so run exits 2) without creating a directory named after it.
func TestAutoRejectsURL(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) //nolint:errcheck // best-effort restore
	oldAuto, oldCmd := *auto, flag.CommandLine
	t.Cleanup(func() { *auto, flag.CommandLine = oldAuto, oldCmd })
	flag.CommandLine = flag.NewFlagSet("calbench", flag.ContinueOnError)
	shared := cliflags.RegisterOps("calbench")

	*auto = "http://127.0.0.1:1"
	if err := resolveAuto(shared); err == nil || !strings.Contains(err.Error(), "not a URL") {
		t.Fatalf("resolveAuto(%q) = %v, want a URL rejection", *auto, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected -auto left %d entries behind, first %q", len(entries), entries[0].Name())
	}
}

// TestGateRefusesAcrossSettings: -gate compares like with like. A
// baseline taken at another GOMAXPROCS or window exits 2 with both
// settings named, whatever the deltas; matching settings gate as usual.
func TestGateRefusesAcrossSettings(t *testing.T) {
	oldDur := *duration
	defer func() { *duration = oldDur }()
	*duration = 500 * time.Millisecond
	procs := runtime.GOMAXPROCS(0)
	bad := regression{pct: 50, cell: `B1 "treiber" goroutines=2`}

	for _, base := range []jsonReport{
		{GOMAXPROCS: procs + 1, Window: "500ms"},
		{GOMAXPROCS: procs, Window: "20ms"},
	} {
		for _, worst := range []regression{bad, {pct: -1}} {
			exit, msg := gateVerdict(&base, worst, 20)
			if exit != 2 {
				t.Errorf("baseline %d/%s, worst %.0f%%: exit %d, want 2", base.GOMAXPROCS, base.Window, worst.pct, exit)
			}
			for _, want := range []string{
				fmt.Sprintf("gomaxprocs=%d, window=%s", base.GOMAXPROCS, base.Window),
				fmt.Sprintf("gomaxprocs=%d, window=500ms", procs),
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("refusal %q does not name %q", msg, want)
				}
			}
		}
	}

	same := jsonReport{GOMAXPROCS: procs, Window: "500ms"}
	if exit, msg := gateVerdict(&same, bad, 20); exit != 1 || !strings.Contains(msg, "REGRESSION") {
		t.Errorf("matching settings, 50%% regression: exit %d (%q), want 1", exit, msg)
	}
	if exit, msg := gateVerdict(&same, regression{pct: 5}, 20); exit != 0 || msg != "" {
		t.Errorf("matching settings, 5%% regression: exit %d (%q), want 0", exit, msg)
	}
}
