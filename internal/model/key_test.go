package model

import (
	"fmt"
	"reflect"
	"testing"

	"calgo/internal/sched"
)

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

// TestKeyExact checks every model's Key on a small config: states with
// equal keys are equal field for field.
func TestKeyExact(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		t.Run(tc.name, func(t *testing.T) { checkKeyExact(t, tc.init) })
	}
}
