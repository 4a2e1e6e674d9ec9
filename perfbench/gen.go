package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/spec"
)

// input is one history of a corpus with the verdict its construction
// guarantees. Every input is generated before timing starts, so checking
// cost is measured apart from generation cost.
type input struct {
	Name    string
	Kind    string // exchanger, syncqueue, queue3, stack3, example, queue, stack, set, pqueue
	Spec    string // specification name as cald and calcheck spell it
	Object  string
	Threads int    // participant bound (snapshot only)
	Mode    string // cal or lin
	Src     string // interchange format
	Events  int
	Want    check.Verdict // Sat or Unsat
	Timeout time.Duration // per-input deadline; 0 = the workload's default

	// Bookkeeping of an Unsat variant: the values invocations offered and
	// the value the corrupted response names instead.
	Corrupted  bool
	CorruptAt  int // event index of the corrupted response
	CorruptVal int64
	Offered    []int64
}

// caDomain bounds the values of generated CA histories; a corrupted
// response names a value above it, which no invocation offered.
const caDomain = 40

// genCACorpus builds the check-ca corpus: n small histories, half Sat by
// construction and half with one corrupted response, shuffled. Kinds and
// sizes are stratified over the index, so every seed gets the same mix:
// 40% exchanger rounds, 20% synchronous-queue hand-offs and 20% each of
// ambiguous queue and stack histories.
func genCACorpus(seed int64, n int) []input {
	r := rand.New(rand.NewSource(seed))
	out := make([]input, 0, n)
	for i := 0; i < n; i++ {
		corrupt := i%2 == 1
		size := i / 10
		var in input
		switch k := i % 10; {
		case k < 4:
			in = genExchanger(r, 1+size%6, corrupt)
		case k < 6:
			in = genSyncQueue(r, 1+size%4, corrupt)
		case k < 8:
			in = genAmbiguous(r, "queue", 6+size%7, corrupt)
		default:
			in = genAmbiguous(r, "stack", 6+size%7, corrupt)
		}
		in.Name = fmt.Sprintf("%s-%05d", in.Kind, i)
		out = append(out, in)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// finish renders h into the input and records its verdict.
func finish(in input, h history.History) input {
	in.Src = history.Format(h)
	in.Events = len(h)
	in.Want = check.Sat
	if in.Corrupted {
		in.Want = check.Unsat
	}
	return in
}

// corruptOne rewrites the removal response h[at] to name bad instead of
// the value it returned.
func corruptOne(in *input, h history.History, at int, bad int64) {
	h[at].Ret = history.Pair(true, bad)
	in.Corrupted, in.CorruptAt, in.CorruptVal = true, at, bad
}

// genExchanger builds one to two rounds of all-overlapping exchanges:
// the first round has maxPairs swapping pairs, a second one 1..maxPairs,
// and a round sometimes has one lone exchange that fails.
func genExchanger(r *rand.Rand, maxPairs int, corrupt bool) input {
	in := input{Kind: "exchanger", Spec: "exchanger", Object: "E", Mode: "cal"}
	var h history.History
	rounds := 1 + r.Intn(2)
	badRound := r.Intn(rounds)
	for round := 0; round < rounds; round++ {
		pairs := maxPairs
		if round > 0 {
			pairs = 1 + r.Intn(maxPairs)
		}
		n := 2 * pairs
		if r.Intn(3) == 0 {
			n++ // a lone exchange that finds no partner
		}
		perm := r.Perm(caDomain)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(perm[i] + 1)
			in.Offered = append(in.Offered, vals[i])
		}
		for _, t := range r.Perm(n) {
			h = append(h, history.Inv(history.ThreadID(t+1), "E", spec.MethodExchange, history.Int(vals[t])))
		}
		base := len(h)
		for _, t := range r.Perm(n) {
			ret := history.Pair(false, vals[t])
			if t < 2*pairs {
				ret = history.Pair(true, vals[t^1])
			}
			h = append(h, history.Res(history.ThreadID(t+1), "E", spec.MethodExchange, ret))
		}
		if corrupt && round == badRound {
			// Any response of a swapping pair: its partner's value is
			// replaced by one no thread offered.
			for {
				at := base + r.Intn(n)
				if h[at].Ret.B {
					corruptOne(&in, h, at, caDomain+1+int64(r.Intn(900)))
					break
				}
			}
		}
	}
	return finish(in, h)
}

// genSyncQueue builds one to two rounds of overlapping put/take
// hand-offs (maxPairs in the first round, 1..maxPairs in a second one),
// sometimes with a take that times out.
func genSyncQueue(r *rand.Rand, maxPairs int, corrupt bool) input {
	in := input{Kind: "syncqueue", Spec: "syncqueue", Object: "SQ", Mode: "cal"}
	var h history.History
	rounds := 1 + r.Intn(2)
	badRound := r.Intn(rounds)
	for round := 0; round < rounds; round++ {
		pairs := maxPairs
		if round > 0 {
			pairs = 1 + r.Intn(maxPairs)
		}
		n := 2 * pairs
		lone := r.Intn(3) == 0
		if lone {
			n++
		}
		perm := r.Perm(caDomain)
		// Threads 2i+1 put, 2i+2 take what 2i+1 put; thread n takes
		// nothing when lone.
		for _, t := range r.Perm(n) {
			if t%2 == 0 && t < 2*pairs {
				v := int64(perm[t/2] + 1)
				in.Offered = append(in.Offered, v)
				h = append(h, history.Inv(history.ThreadID(t+1), "SQ", spec.MethodPut, history.Int(v)))
			} else {
				h = append(h, history.Inv(history.ThreadID(t+1), "SQ", spec.MethodTake, history.Unit()))
			}
		}
		var takes []int
		for _, t := range r.Perm(n) {
			var ev history.Event
			switch {
			case t%2 == 0 && t < 2*pairs:
				ev = history.Res(history.ThreadID(t+1), "SQ", spec.MethodPut, history.Bool(true))
			case t < 2*pairs:
				takes = append(takes, len(h))
				ev = history.Res(history.ThreadID(t+1), "SQ", spec.MethodTake, history.Pair(true, int64(perm[t/2]+1)))
			default:
				ev = history.Res(history.ThreadID(t+1), "SQ", spec.MethodTake, history.Pair(false, 0))
			}
			h = append(h, ev)
		}
		if corrupt && round == badRound {
			corruptOne(&in, h, takes[r.Intn(len(takes))], caDomain+1+int64(r.Intn(900)))
		}
	}
	return finish(in, h)
}

// genAmbiguous builds a queue or stack history of nOps operations over
// the values 1..3. Values repeat, so the history is outside the monitors' fragment
// and the classifier sends it to the DFS. Each operation takes effect at
// its invocation; responses are delayed across other threads' events.
func genAmbiguous(r *rand.Rand, kind string, nOps int, corrupt bool) input {
	obj, put, get := "Q", spec.MethodEnq, spec.MethodDeq
	if kind == "stack" {
		obj, put, get = "S", spec.MethodPush, spec.MethodPop
	}
	in := input{Kind: kind + "3", Spec: kind, Object: obj, Mode: "cal"}
	const threads = 3
	var state []int64
	var h history.History
	var gets []int
	pending := map[history.ThreadID]history.Event{}
	started := 0
	for started < nOps || len(pending) > 0 {
		var free []history.ThreadID
		for t := history.ThreadID(1); t <= threads; t++ {
			if _, busy := pending[t]; !busy {
				free = append(free, t)
			}
		}
		if started < nOps && len(free) > 0 && (len(pending) == 0 || r.Float64() < 0.6) {
			t := free[r.Intn(len(free))]
			if len(state) == 0 || r.Float64() < 0.5 {
				v := int64(1 + r.Intn(3))
				in.Offered = append(in.Offered, v)
				state = append(state, v)
				h = append(h, history.Inv(t, history.ObjectID(obj), put, history.Int(v)))
				pending[t] = history.Res(t, history.ObjectID(obj), put, history.Bool(true))
			} else {
				var v int64
				if kind == "stack" {
					v, state = state[len(state)-1], state[:len(state)-1]
				} else {
					v, state = state[0], state[1:]
				}
				h = append(h, history.Inv(t, history.ObjectID(obj), get, history.Unit()))
				pending[t] = history.Res(t, history.ObjectID(obj), get, history.Pair(true, v))
			}
			started++
			continue
		}
		ts := make([]history.ThreadID, 0, len(pending))
		for t := range pending {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		t := ts[r.Intn(len(ts))]
		if pending[t].Method == get {
			gets = append(gets, len(h))
		}
		h = append(h, pending[t])
		delete(pending, t)
	}
	if corrupt {
		if len(gets) == 0 {
			// No removal yet: append one that claims a value.
			h = append(h, history.Inv(1, history.ObjectID(obj), get, history.Unit()),
				history.Res(1, history.ObjectID(obj), get, history.Pair(true, 0)))
			gets = append(gets, len(h)-1)
		}
		corruptOne(&in, h, gets[r.Intn(len(gets))], 4+int64(r.Intn(6)))
	}
	return finish(in, h)
}

// exampleInputs loads the committed examples/histories files, each once
// per spec and mode its header names. A file whose header names no
// calcheck invocation is skipped.
func exampleInputs(dir string) ([]input, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no example histories in %s", dir)
	}
	var out []input
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		for _, in := range parseHeader(string(src)) {
			in.Name = filepath.Base(p) + "/" + in.Mode
			in.Kind = "example"
			in.Src = string(src)
			h, err := history.ParseFile(in.Name, in.Src)
			if err != nil {
				return nil, err
			}
			in.Events = len(h)
			out = append(out, in)
		}
	}
	return out, nil
}

var (
	headerFlag    = regexp.MustCompile(`-(spec|object|threads|mode|timeout)\s+(\S+)`)
	headerComment = regexp.MustCompile(`^#\s?`)
)

// parseHeader reads the "calcheck -spec S -object O ... -> VERDICT"
// commands of an example's comment header. A "; -mode lin -> X" clause
// after a command inherits its flags. UNKNOWN marks a file that is
// undecidable within its stated budget; its known answer is Unsat (the
// header explains why), and an Unknown verdict counts as undecided.
func parseHeader(src string) []input {
	var header []string
	for _, line := range strings.Split(src, "\n") {
		if !strings.HasPrefix(line, "#") {
			break
		}
		header = append(header, strings.TrimSuffix(headerComment.ReplaceAllString(line, ""), "\\"))
	}
	var out []input
	for _, cmd := range strings.Split(strings.Join(header, " "), "calcheck")[1:] {
		in := input{Spec: "exchanger", Object: "E", Mode: "cal"}
		for _, clause := range strings.Split(cmd, ";") {
			arrow := strings.Index(clause, "->")
			if arrow < 0 {
				continue
			}
			for _, f := range headerFlag.FindAllStringSubmatch(clause[:arrow], -1) {
				switch f[1] {
				case "spec":
					in.Spec = f[2]
				case "object":
					in.Object = f[2]
				case "threads":
					in.Threads, _ = strconv.Atoi(f[2])
				case "mode":
					in.Mode = f[2]
				case "timeout":
					in.Timeout, _ = time.ParseDuration(f[2])
				}
			}
			switch verdict := strings.Fields(clause[arrow+2:]); {
			case len(verdict) == 0:
				continue
			case verdict[0] == "OK":
				in.Want = check.Sat
			case verdict[0] == "VIOLATION" || verdict[0] == "UNKNOWN":
				in.Want = check.Unsat
			default:
				continue
			}
			out = append(out, in)
		}
	}
	return out
}

// longKind is one collection kind of the check-long corpus.
type longKind struct {
	name      string
	spec      string
	gen       func(nOps, threads int, seed int64, obj history.ObjectID) history.History
	maxEvents int
}

// longKinds are the check-long collections. Stack histories stop at
// 16,384 events: the DFS fallback's real-time order is quadratic in the
// operations, so a 30k-op stack history needs about 3 GB and 15 s however
// short its deadline (see README.md). Up to 16,384 events the fallback
// still shows, within about half a gigabyte.
var longKinds = []longKind{
	{"queue", "queue", monitor.GenQueue, 1 << 16},
	{"stack", "stack", monitor.GenStack, 1 << 14},
	{"set", "set", monitor.GenSet, 1 << 16},
	{"pqueue", "pqueue", monitor.GenPQueue, 1 << 16},
}

const (
	longMinEvents = 1000
	longStrata    = 13 // sizes per kind and variant: 4 x 13 x 2 = 104 inputs
	longThreads   = 4
)

// genLongCorpus builds the check-long corpus: for every kind, sizes
// log-spaced from 1k events to the kind's cap (the midpoints of equal
// log-width strata, the same for every seed), each as a Sat history and
// as one whose last removal (or, for sets, last failed membership probe)
// names a value that was never inserted. The seed picks the contents.
func genLongCorpus(seed int64) []input {
	r := rand.New(rand.NewSource(seed))
	var out []input
	for _, k := range longKinds {
		lo, hi := math.Log(longMinEvents), math.Log(float64(k.maxEvents))
		for i := 0; i < longStrata; i++ {
			events := int(math.Exp(lo + (float64(i)+0.5)/longStrata*(hi-lo)))
			gseed := r.Int63()
			for _, corrupt := range []bool{false, true} {
				h := k.gen(events/2, longThreads, gseed, "C")
				in := input{Kind: k.name, Spec: k.spec, Object: "C", Mode: "cal",
					Name: fmt.Sprintf("%s-%d-%v", k.name, events, corrupt)}
				if corrupt {
					corruptLong(&in, h, k.name)
				}
				out = append(out, finish(in, h))
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// corruptLong corrupts the last removal response of h (the last failed
// membership probe for sets) so that it names a value never inserted:
// removals get a negative value, which the generators never insert; a
// set probe of a never-added negative value is flipped to true.
func corruptLong(in *input, h history.History, kind string) {
	for _, e := range h {
		if e.IsInv() && e.Arg.Kind == history.KindInt && e.Method != spec.MethodContains && e.Method != spec.MethodRemove {
			in.Offered = append(in.Offered, e.Arg.N)
		}
	}
	for i := len(h) - 1; i >= 0; i-- {
		e := h[i]
		if !e.IsRes() {
			continue
		}
		if kind == "set" {
			if e.Method == spec.MethodContains && !e.Ret.B {
				arg := matchingInv(h, i).Arg.N
				h[i].Ret = history.Bool(true)
				in.Corrupted, in.CorruptAt, in.CorruptVal = true, i, arg
				return
			}
			continue
		}
		if e.Ret.Kind == history.KindPair && e.Ret.B {
			corruptOne(in, h, i, -1-int64(i))
			return
		}
	}
}

// matchingInv returns the invocation answered by the response at i.
func matchingInv(h history.History, i int) history.Event {
	for j := i - 1; j >= 0; j-- {
		if h[j].IsInv() && h[j].Matches(h[i]) {
			return h[j]
		}
	}
	return history.Event{}
}

// genQueueStream builds a stream session's queue history of n events.
// A corrupted session's last dequeue at or after index at names a value
// never enqueued; the returned index is that event's (-1 if none).
func genQueueStream(seed int64, n int, corruptFrom int) (history.History, int) {
	h := monitor.GenQueue(n/2, longThreads, seed, "Q")
	if corruptFrom < 0 {
		return h, -1
	}
	for i := corruptFrom; i < len(h); i++ {
		if h[i].IsRes() && h[i].Ret.Kind == history.KindPair && h[i].Ret.B {
			h[i].Ret = history.Pair(true, -1-int64(i))
			return h, i
		}
	}
	return h, -1
}

// renameThreads renders h with every thread id shifted by off: the same
// history to the verdict cache, different bytes on the wire.
func renameThreads(src string, off int) (string, error) {
	h, err := history.Parse(src)
	if err != nil {
		return "", err
	}
	for i := range h {
		h[i].Thread += history.ThreadID(off)
	}
	return history.Format(h), nil
}
