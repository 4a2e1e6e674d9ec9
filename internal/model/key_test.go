package model

import (
	"fmt"
	"reflect"
	"testing"

	"calgo/internal/sched"
)

// Every test of the package checks the running encodings of 𝒯 and the
// history on each key it builds.
func init() { keyCheck = true }

// sameFields reports whether a and b hold equal values field by field,
// following slices and structs and treating nil and empty slices as equal.
// Pointers (the shared config) compare by identity. It is written against
// reflect alone so that it shares no code with the key encoder it checks.
func sameFields(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameFields(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameFields(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		return a.Pointer() == b.Pointer()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	default:
		panic(fmt.Sprintf("sameFields: unhandled kind %s", a.Kind()))
	}
}

// checkKeyExact walks every state reachable from init, groups the states
// by Key and fails if two states of one group differ in any field: a key
// that merges distinct states would make the exploration unsound.
func checkKeyExact(t *testing.T, init sched.State) {
	t.Helper()
	seen := map[string]sched.State{init.Key(): init}
	stack := []sched.State{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range s.Successors() {
			k := succ.Next.Key()
			rep, ok := seen[k]
			if !ok {
				seen[k] = succ.Next
				stack = append(stack, succ.Next)
				continue
			}
			if !sameFields(reflect.ValueOf(rep).Elem(), reflect.ValueOf(succ.Next).Elem()) {
				t.Fatalf("two distinct states share a key:\n%+v\n%+v", rep, succ.Next)
			}
		}
	}
	if len(seen) < 2 {
		t.Fatalf("walk reached %d states; the config is too small to test anything", len(seen))
	}
}

// keyCases are small configs of all seven models, the bug variants of the
// exchanger included.
var keyCases = []struct {
	name string
	init sched.State
}{
	{"exchanger", NewExchanger(ExchangerConfig{Programs: [][]int64{{3, 5}, {4}}})},
	{"exchanger-late-swap-log", NewExchanger(ExchangerConfig{Programs: [][]int64{{3}, {4}}, Bug: "late-swap-log"})},
	{"exchanger-drop-pass-log", NewExchanger(ExchangerConfig{Programs: [][]int64{{3, 5}, {4, 6}}, Bug: "drop-pass-log"})},
	{"exchanger-wrong-swap-values", NewExchanger(ExchangerConfig{Programs: [][]int64{{3, 5}, {4, 6}}, Bug: "wrong-swap-values"})},
	{"elimstack", NewElimStack(ESConfig{Slots: 2, Programs: [][]StackOp{{Push(1)}, {Pop()}}})},
	{"stack", NewStack(StackConfig{Programs: [][]StackOp{{Push(1), Pop()}, {Pop()}}})},
	{"syncqueue", NewSyncQueue(SQConfig{Programs: [][]SQOp{{Put(1)}, {Take(), Put(2)}}})},
	{"dualstack", NewDualStack(DSConfig{Programs: [][]StackOp{{Pop()}, {Push(1), Pop()}}})},
	{"dualqueue", NewDualQueue(DQConfig{Programs: [][]QOp{{Deq()}, {Enq(1), Deq()}}})},
	{"snapshot", NewSnapshot(ISConfig{Values: []int64{10, 20}})},
}

// TestKeyExact checks every model's Key on a small config: states with
// equal keys are equal field for field.
func TestKeyExact(t *testing.T) {
	for _, tc := range keyCases {
		t.Run(tc.name, func(t *testing.T) { checkKeyExact(t, tc.init) })
	}
}

// scratch re-encodes a state from its fields alone: the threads, then 𝒯
// and the history through their own AppendKey, then the heap's share.
func scratch[T thread](s *state[T], heap []byte) string {
	k := appendSection(nil, s.Threads)
	k = s.Hist.AppendKey(s.Trace.AppendKey(k))
	return string(append(k, heap...))
}

// scratchKey is the from-scratch encoding of st, with each model's heap
// fields in the order its Key writes them.
func scratchKey(t *testing.T, st sched.State) string {
	switch s := st.(type) {
	case *ExchangerState:
		return scratch(&s.state, appendSection(appendInts(nil, s.G), s.Offers))
	case *ESState:
		k := appendSection(appendInts(nil, s.Top), s.Cells)
		k = appendInts(appendLen(k, len(s.G)), s.G...)
		return scratch(&s.state, appendSection(k, s.Offers))
	case *StackState:
		return scratch(&s.state, appendSection(appendInts(nil, s.Top), s.Cells))
	case *SQState:
		return scratch(&s.state, appendSection(appendInts(nil, s.G), s.Offers))
	case *DSState:
		return scratch(&s.state, appendSection(appendInts(nil, s.Top), s.Nodes))
	case *DQState:
		return scratch(&s.state, appendSection(appendInts(nil, s.Head, s.Tail), s.Nodes))
	case *ISState:
		return scratch(&s.state, appendInts(appendLen(nil, len(s.Levels)), s.Levels...))
	default:
		t.Fatalf("scratchKey: unknown model state %T", st)
		return ""
	}
}

// TestKeyIncremental holds the running encoding of 𝒯 and the history to
// the from-scratch one: on every reachable state of all seven models,
// Key is byte for byte the encoding rebuilt from the state's fields. On
// the deepest state it also holds the buffer sizing: a key costs the
// buffer and the string, with no regrowth in between.
func TestKeyIncremental(t *testing.T) {
	for _, tc := range keyCases {
		t.Run(tc.name, func(t *testing.T) {
			deepest := tc.init
			seen := map[string]bool{tc.init.Key(): true}
			stack := []sched.State{tc.init}
			for len(stack) > 0 {
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if got, want := s.Key(), scratchKey(t, s); got != want {
					t.Fatalf("running key differs from the from-scratch encoding:\n%x\n%x\nstate %+v", got, want, s)
				}
				if len(s.(HT).History()) > len(deepest.(HT).History()) {
					deepest = s
				}
				for _, succ := range s.Successors() {
					if k := succ.Next.Key(); !seen[k] {
						seen[k] = true
						stack = append(stack, succ.Next)
					}
				}
			}
			keyCheck = false // its re-encoding allocates
			allocs := testing.AllocsPerRun(20, func() { _ = deepest.Key() })
			keyCheck = true
			if allocs > 2 {
				t.Errorf("Key on the deepest state allocates %.0f times, want at most 2 (buffer and string)", allocs)
			}
		})
	}
}
