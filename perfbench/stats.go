package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStatusKB reads a kB field (e.g. "VmHWM") of /proc/<pid>/status;
// pid "self" reads this process.
func procStatusKB(pid, field string) (int64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line[len(field)+1:])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// peakRSSMB is the peak resident set of a process in MB.
func peakRSSMB(pid string) float64 {
	kb, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return float64(kb) / 1024
}

// cpuSeconds is the user + system CPU time a process has used, from
// /proc/<pid>/stat (in clock ticks of 1/100 s).
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// gcDelta reports the collections and total pause time between two
// runtime.MemStats readings.
func gcDelta(before, after *runtime.MemStats) (cycles int, pauseMS float64) {
	return int(after.NumGC - before.NumGC), float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// busy accumulates the busy time of calls made from many goroutines.
type busy struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (b *busy) add(d time.Duration) {
	b.ns.Add(int64(d))
	b.calls.Add(1)
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// span is one timed call into a layer. Spans of one input or request
// share Trace; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// id reserves a span id, so children can name their parent before the
// parent ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores the finished span id.
func (t *tracer) record(id, parent, trace int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// write saves the spans as JSON lines under dir and prints the self time
// of every span name.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	n := len(t.spans)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("trace: %d spans written to %s; self time per span name:\n", n, path)
	for _, k := range names {
		fmt.Printf("  %-28s %10.4f s\n", k, self[k])
	}
	return nil
}

// setupRuns is how many cold starts setup_s takes the median of.
const setupRuns = 101

// coldStart execs the calgo command name from dir setupRuns times and
// returns the median time from exec to its exit, in seconds: the
// program's own set-up (runtime and package initialization, flag
// parsing, input reading, spec and checker or model construction)
// around one tiny job. Every run must exit 0.
func coldStart(dir, name string, args ...string) (float64, error) {
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(filepath.Join(dir, name), args...)
		t0 := time.Now()
		out, err := cmd.CombinedOutput()
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("cold start of %s %s: %v: %s", name, strings.Join(args, " "), err, out)
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}
