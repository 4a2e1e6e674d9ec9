package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/spec"
)

// corpora renders everything a seed generates, in order.
func corpora(seed int64) []string {
	var out []string
	for _, in := range genCACorpus(seed, 500) {
		out = append(out, in.Name, in.Src)
	}
	for _, in := range genLongCorpus(seed) {
		out = append(out, in.Name, in.Src)
	}
	p := newPools(seed)
	for _, in := range p.coll {
		out = append(out, in.Name, in.Src)
	}
	for i := 0; i < 400; i++ {
		out = append(out, p.next().src)
	}
	h, at := genQueueStream(seed, 2000, 500)
	out = append(out, history.Format(h), strconv.Itoa(at))
	return out
}

func TestSameSeedSameCorpora(t *testing.T) {
	a, b := corpora(7), corpora(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated different corpora on two calls")
	}
	c := corpora(8)
	same := 0
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated identical corpora")
	}
}

// checkBookkeeping asserts an input's verdict follows its construction:
// a corrupted input is Unsat, and its corrupted response, found in the
// rendered history, names a value no invocation offered.
func checkBookkeeping(t *testing.T, in input) {
	t.Helper()
	if !in.Corrupted {
		if in.Want != check.Sat {
			t.Errorf("%s: clean input wants %v", in.Name, in.Want)
		}
		return
	}
	if in.Want != check.Unsat {
		t.Errorf("%s: corrupted input wants %v", in.Name, in.Want)
	}
	for _, v := range in.Offered {
		if v == in.CorruptVal {
			t.Errorf("%s: corrupted value %d was offered by an invocation", in.Name, v)
		}
	}
	h, err := history.Parse(in.Src)
	if err != nil {
		t.Fatalf("%s: %v", in.Name, err)
	}
	e := h[in.CorruptAt]
	if !e.IsRes() {
		t.Fatalf("%s: event %d is not a response", in.Name, in.CorruptAt)
	}
	named := e.Ret.N
	if e.Method == spec.MethodContains {
		named = matchingInv(h, in.CorruptAt).Arg.N
	}
	if named != in.CorruptVal {
		t.Errorf("%s: event %d names %d, bookkeeping says %d", in.Name, in.CorruptAt, named, in.CorruptVal)
	}
}

func TestUnsatVariantsNameUnofferedValues(t *testing.T) {
	ca := genCACorpus(3, 2000)
	long := genLongCorpus(3)
	coll := newPools(3).coll
	corrupted := 0
	for _, set := range [][]input{ca, long, coll} {
		for _, in := range set {
			checkBookkeeping(t, in)
			if in.Corrupted {
				corrupted++
			}
		}
	}
	if want := len(ca)/2 + len(long)/2 + len(coll)/2; corrupted != want {
		t.Errorf("%d corrupted inputs, want %d (half of every corpus)", corrupted, want)
	}
}

func TestStreamCorruptionIsExact(t *testing.T) {
	h, at := genQueueStream(5, 4000, 1000)
	if at < 1000 {
		t.Fatalf("corrupted event at %d, want at or after 1000", at)
	}
	offered := map[int64]bool{}
	for _, e := range h {
		if e.IsInv() && e.Method == spec.MethodEnq {
			offered[e.Arg.N] = true
		}
	}
	if e := h[at]; !e.IsRes() || e.Method != spec.MethodDeq || !e.Ret.B || offered[e.Ret.N] {
		t.Fatalf("event %d = %v, want a dequeue of a value never enqueued", at, e)
	}
}

func TestExampleHeaders(t *testing.T) {
	ins, err := exampleInputs(filepath.Join("..", "examples", "histories"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]input{}
	for _, in := range ins {
		got[in.Name] = in
	}
	for name, want := range map[string]input{
		"fig3-h1.txt/cal":              {Spec: "exchanger", Want: check.Sat},
		"fig3-h1.txt/lin":              {Spec: "exchanger", Want: check.Unsat},
		"syncqueue-handoff.txt/lin":    {Spec: "syncqueue", Want: check.Unsat},
		"snapshot-adversarial.txt/cal": {Spec: "snapshot", Want: check.Unsat, Threads: 23, Timeout: 100 * time.Millisecond},
		"stack-violation.txt/cal":      {Spec: "stack", Want: check.Unsat},
		"queue-fifo.txt/cal":           {Spec: "queue", Want: check.Sat},
	} {
		in, ok := got[name]
		if !ok {
			t.Errorf("no input %s", name)
			continue
		}
		if in.Spec != want.Spec || in.Want != want.Want || in.Threads != want.Threads || in.Timeout != want.Timeout {
			t.Errorf("%s: spec %s want %v threads %d timeout %v", name, in.Spec, in.Want, in.Threads, in.Timeout)
		}
	}
}

// TestBenchmarkJSONMatches pins the metric lists printed here to the
// ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		E2E       []struct{ Name, Unit string } `json:"end_to_end"`
		Layer     []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", what, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), printed %s (%s)", what, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", doc.E2E, e2eMetrics)
	same("per_layer", doc.Layer, layerMetrics)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
}
