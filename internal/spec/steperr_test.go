package spec

import (
	"testing"

	"calgo/internal/history"
	"calgo/internal/trace"
)

func sop(t history.ThreadID, o history.ObjectID, m history.Method, arg, ret history.Value) trace.Operation {
	return trace.Operation{Thread: t, Object: o, Method: m, Arg: arg, Ret: ret}
}

func one(t history.ThreadID, o history.ObjectID, m history.Method, arg, ret history.Value) trace.Element {
	return trace.Singleton(sop(t, o, m, arg, ret))
}

// rejectionCases reach every Step rejection of the stack, dual-stack,
// queue, dual-queue, set and priority-queue specifications (and a few of
// the exchanger's and the sync queue's). want is the text the rejection
// rendered when it was formatted eagerly with fmt.Errorf.
var rejectionCases = []struct {
	name    string
	sp      Spec
	prefix  trace.Trace
	foreign bool // step from a state of another specification
	el      trace.Element
	want    string
}{
	{"stack/object", NewStack("S"), nil, false, PushElement("T", 1, 1, true), "element on object T, spec constrains S"},
	{"stack/size", NewStack("S"), nil, false, trace.MustElement(sop(1, "S", MethodPush, history.Int(1), history.Bool(true)), sop(2, "S", MethodPop, history.Unit(), history.Pair(true, 1))), "stack elements are singletons, got 2 operations"},
	{"stack/foreign", NewStack("S"), nil, true, PushElement("S", 1, 1, true), "foreign state spec.emptyState"},
	{"stack/push-types", NewStack("S"), nil, false, one(1, "S", MethodPush, history.Unit(), history.Bool(true)), "push must be int ▷ bool, got () ▷ true"},
	{"stack/push-fail", NewStack("S"), nil, false, PushElement("S", 1, 1, false), "push cannot fail in the abstract stack: S.{(t1, push(1) ▷ false)}"},
	{"stack/pop-types", NewStack("S"), nil, false, one(1, "S", MethodPop, history.Int(1), history.Pair(true, 1)), "pop must be () ▷ (bool,int), got 1 ▷ (true,1)"},
	{"stack/pop-fail-value", NewStack("S"), nil, false, PopElement("S", 1, false, 3), "failed pop must return (false,0): S.{(t1, pop(()) ▷ (false,3))}"},
	{"stack/pop-fail-nonempty", NewStack("S"), trace.Trace{PushElement("S", 1, 5, true)}, false, PopElement("S", 2, false, 0), "pop may fail only on the empty stack, state [5]"},
	{"stack/pop-empty", NewStack("S"), nil, false, PopElement("S", 1, true, 5), "successful pop on empty stack: S.{(t1, pop(()) ▷ (true,5))}"},
	{"stack/pop-value", NewStack("S"), trace.Trace{PushElement("S", 1, 5, true), PushElement("S", 2, 700, true)}, false, PopElement("S", 3, true, 5), "pop returned 5 but top is 700"},
	{"stack/method", NewStack("S"), nil, false, one(1, "S", "peek", history.Unit(), history.Int(1)), "unknown method peek"},

	{"dualstack/object", NewDualStack("DS"), nil, false, PushElement("S", 1, 1, true), "element on object S, spec constrains DS"},
	{"dualstack/singleton", NewDualStack("DS"), nil, false, PopElement("DS", 1, true, 4), "successful pop on empty stack: DS.{(t1, pop(()) ▷ (true,4))}"},
	{"dualstack/pairing", NewDualStack("DS"), nil, false, trace.MustElement(sop(1, "DS", MethodPop, history.Unit(), history.Pair(true, 1)), sop(2, "DS", MethodPop, history.Unit(), history.Pair(true, 1))), "a fulfilment pairs one push with one pop: DS.{(t1, pop(()) ▷ (true,1)), (t2, pop(()) ▷ (true,1))}"},
	{"dualstack/push", NewDualStack("DS"), nil, false, trace.MustElement(sop(1, "DS", MethodPush, history.Int(1), history.Bool(false)), sop(2, "DS", MethodPop, history.Unit(), history.Pair(true, 1))), "fulfilment push must be int ▷ true: DS.{(t1, push(1) ▷ false), (t2, pop(()) ▷ (true,1))}"},
	{"dualstack/pop-value", NewDualStack("DS"), nil, false, trace.MustElement(sop(1, "DS", MethodPush, history.Int(1), history.Bool(true)), sop(2, "DS", MethodPop, history.Unit(), history.Pair(true, 2))), "fulfilled pop must return the pushed value 1: DS.{(t1, push(1) ▷ true), (t2, pop(()) ▷ (true,2))}"},
	{"dualstack/size", NewDualStack("DS"), nil, false, trace.MustElement(sop(1, "DS", MethodPush, history.Int(1), history.Bool(true)), sop(2, "DS", MethodPop, history.Unit(), history.Pair(true, 1)), sop(3, "DS", MethodPop, history.Unit(), history.Pair(true, 1))), "dual stack elements have one or two operations, got 3"},

	{"queue/object", NewQueue("Q"), nil, false, one(1, "P", MethodEnq, history.Int(1), history.Bool(true)), "element on object P, spec constrains Q"},
	{"queue/size", NewQueue("Q"), nil, false, trace.MustElement(sop(1, "Q", MethodEnq, history.Int(1), history.Bool(true)), sop(2, "Q", MethodDeq, history.Unit(), history.Pair(true, 1))), "queue elements are singletons, got 2 operations"},
	{"queue/foreign", NewQueue("Q"), nil, true, enqElem(1, 1), "foreign state spec.emptyState"},
	{"queue/enq-types", NewQueue("Q"), nil, false, one(1, "Q", MethodEnq, history.Int(1), history.Bool(false)), "enq must be int ▷ true, got 1 ▷ false"},
	{"queue/deq-types", NewQueue("Q"), nil, false, one(1, "Q", MethodDeq, history.Unit(), history.Int(1)), "deq must be () ▷ (bool,int), got () ▷ 1"},
	{"queue/deq-fail-value", NewQueue("Q"), nil, false, deqElem(1, false, 3), "failed deq must return (false,0): Q.{(t1, deq(()) ▷ (false,3))}"},
	{"queue/deq-fail-nonempty", NewQueue("Q"), trace.Trace{enqElem(1, 5), enqElem(2, 6)}, false, deqElem(3, false, 0), "deq may fail only on the empty queue, state [5,6]"},
	{"queue/deq-empty", NewQueue("Q"), nil, false, deqElem(1, true, 5), "successful deq on empty queue: Q.{(t1, deq(()) ▷ (true,5))}"},
	{"queue/deq-value", NewQueue("Q"), trace.Trace{enqElem(1, 500), enqElem(2, 7)}, false, deqElem(3, true, 7), "deq returned 7 but head is 500"},
	{"queue/method", NewQueue("Q"), nil, false, one(1, "Q", "peek", history.Unit(), history.Int(1)), "unknown method peek"},

	{"dualqueue/object", NewDualQueue("DQ"), nil, false, enqElem(1, 1), "element on object Q, spec constrains DQ"},
	{"dualqueue/foreign", NewDualQueue("DQ"), nil, true, QFulfilmentElement("DQ", 1, 1, 2), "foreign state spec.emptyState"},
	{"dualqueue/pairing", NewDualQueue("DQ"), nil, false, trace.MustElement(sop(1, "DQ", MethodEnq, history.Int(1), history.Bool(true)), sop(2, "DQ", MethodEnq, history.Int(2), history.Bool(true))), "a fulfilment pairs one enq with one deq: DQ.{(t1, enq(1) ▷ true), (t2, enq(2) ▷ true)}"},
	{"dualqueue/enq", NewDualQueue("DQ"), nil, false, trace.MustElement(sop(1, "DQ", MethodEnq, history.Unit(), history.Bool(true)), sop(2, "DQ", MethodDeq, history.Unit(), history.Pair(true, 1))), "fulfilment enq must be int ▷ true: DQ.{(t1, enq(()) ▷ true), (t2, deq(()) ▷ (true,1))}"},
	{"dualqueue/deq-value", NewDualQueue("DQ"), nil, false, trace.MustElement(sop(1, "DQ", MethodEnq, history.Int(1), history.Bool(true)), sop(2, "DQ", MethodDeq, history.Unit(), history.Pair(true, 2))), "fulfilled deq must return the enqueued value 1: DQ.{(t1, enq(1) ▷ true), (t2, deq(()) ▷ (true,2))}"},
	{"dualqueue/nonempty", NewDualQueue("DQ"), trace.Trace{one(3, "DQ", MethodEnq, history.Int(9), history.Bool(true))}, false, QFulfilmentElement("DQ", 1, 1, 2), "fulfilment requires the empty queue (FIFO), state [9]: DQ.{(t1, enq(1) ▷ true), (t2, deq(()) ▷ (true,1))}"},
	{"dualqueue/size", NewDualQueue("DQ"), nil, false, trace.MustElement(sop(1, "DQ", MethodEnq, history.Int(1), history.Bool(true)), sop(2, "DQ", MethodDeq, history.Unit(), history.Pair(true, 1)), sop(3, "DQ", MethodDeq, history.Unit(), history.Pair(true, 1))), "dual queue elements have one or two operations, got 3"},

	{"set/object", NewSet("X"), nil, false, one(1, "Y", MethodAdd, history.Int(1), history.Bool(true)), "element on object Y, spec constrains X"},
	{"set/size", NewSet("X"), nil, false, trace.MustElement(sop(1, "X", MethodAdd, history.Int(1), history.Bool(true)), sop(2, "X", MethodAdd, history.Int(2), history.Bool(true))), "set elements are singletons, got 2 operations"},
	{"set/foreign", NewSet("X"), nil, true, one(1, "X", MethodAdd, history.Int(1), history.Bool(true)), "foreign state spec.emptyState"},
	{"set/types", NewSet("X"), nil, false, one(1, "X", MethodAdd, history.Unit(), history.Bool(true)), "set methods are int ▷ bool, got () ▷ true"},
	{"set/add-member", NewSet("X"), trace.Trace{one(1, "X", MethodAdd, history.Int(300), history.Bool(true))}, false, one(2, "X", MethodAdd, history.Int(300), history.Bool(true)), "add(300) ▷ true but 300 is already a member"},
	{"set/add-absent", NewSet("X"), nil, false, one(1, "X", MethodAdd, history.Int(3), history.Bool(false)), "add(3) ▷ false but 3 is absent"},
	{"set/remove-member", NewSet("X"), trace.Trace{one(1, "X", MethodAdd, history.Int(3), history.Bool(true))}, false, one(2, "X", MethodRemove, history.Int(3), history.Bool(false)), "remove(3) ▷ false but 3 is a member"},
	{"set/remove-absent", NewSet("X"), nil, false, one(1, "X", MethodRemove, history.Int(3), history.Bool(true)), "remove(3) ▷ true but 3 is absent"},
	{"set/contains", NewSet("X"), nil, false, one(1, "X", MethodContains, history.Int(3), history.Bool(true)), "contains(3) ▷ true but membership is false"},
	{"set/method", NewSet("X"), nil, false, one(1, "X", "clear", history.Int(3), history.Bool(true)), "unknown method clear"},

	{"pqueue/object", NewPQueue("PQ"), nil, false, one(1, "Q", MethodInsert, history.Int(1), history.Bool(true)), "element on object Q, spec constrains PQ"},
	{"pqueue/size", NewPQueue("PQ"), nil, false, trace.MustElement(sop(1, "PQ", MethodInsert, history.Int(1), history.Bool(true)), sop(2, "PQ", MethodInsert, history.Int(2), history.Bool(true))), "pqueue elements are singletons, got 2 operations"},
	{"pqueue/foreign", NewPQueue("PQ"), nil, true, one(1, "PQ", MethodInsert, history.Int(1), history.Bool(true)), "foreign state spec.emptyState"},
	{"pqueue/insert-types", NewPQueue("PQ"), nil, false, one(1, "PQ", MethodInsert, history.Int(1), history.Bool(false)), "insert must be int ▷ true, got 1 ▷ false"},
	{"pqueue/extract-types", NewPQueue("PQ"), nil, false, one(1, "PQ", MethodExtractMin, history.Int(1), history.Pair(true, 1)), "extractmin must be () ▷ (bool,int), got 1 ▷ (true,1)"},
	{"pqueue/extract-fail-value", NewPQueue("PQ"), nil, false, one(1, "PQ", MethodExtractMin, history.Unit(), history.Pair(false, 2)), "failed extractmin must return (false,0): PQ.{(t1, extractmin(()) ▷ (false,2))}"},
	{"pqueue/extract-fail-nonempty", NewPQueue("PQ"), trace.Trace{one(1, "PQ", MethodInsert, history.Int(4), history.Bool(true)), one(2, "PQ", MethodInsert, history.Int(2), history.Bool(true))}, false, one(3, "PQ", MethodExtractMin, history.Unit(), history.Pair(false, 0)), "extractmin may fail only on the empty queue, state [2,4]"},
	{"pqueue/extract-empty", NewPQueue("PQ"), nil, false, one(1, "PQ", MethodExtractMin, history.Unit(), history.Pair(true, 1)), "successful extractmin on empty queue: PQ.{(t1, extractmin(()) ▷ (true,1))}"},
	{"pqueue/extract-value", NewPQueue("PQ"), trace.Trace{one(1, "PQ", MethodInsert, history.Int(4), history.Bool(true)), one(2, "PQ", MethodInsert, history.Int(-2), history.Bool(true))}, false, one(3, "PQ", MethodExtractMin, history.Unit(), history.Pair(true, 4)), "extractmin returned 4 but minimum is -2"},
	{"pqueue/method", NewPQueue("PQ"), nil, false, one(1, "PQ", "peek", history.Unit(), history.Pair(true, 4)), "unknown method peek"},

	{"exchanger/lone-swap", NewExchanger("E"), nil, false, one(1, "E", MethodExchange, history.Int(3), history.Pair(true, 4)), "a successful exchange cannot stand alone: E.{(t1, exchange(3) ▷ (true,4))}"},
	{"exchanger/no-cross", NewExchanger("E"), nil, false, trace.MustElement(sop(1, "E", MethodExchange, history.Int(3), history.Pair(true, 3)), sop(2, "E", MethodExchange, history.Int(4), history.Pair(true, 4))), "swap values do not cross: E.{(t1, exchange(3) ▷ (true,3)), (t2, exchange(4) ▷ (true,4))}"},
	{"syncqueue/lone-put", NewSyncQueue("SQ"), nil, false, one(1, "SQ", MethodPut, history.Int(3), history.Bool(true)), "a successful put cannot stand alone: SQ.{(t1, put(3) ▷ true)}"},
}

// TestRejectionTexts holds the lazily formatted rejections to the texts
// fmt.Errorf wrote for them, byte for byte.
func TestRejectionTexts(t *testing.T) {
	for _, tc := range rejectionCases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Accepts(tc.sp, tc.prefix)
			if err != nil {
				t.Fatalf("prefix rejected: %v", err)
			}
			if tc.foreign {
				s = Empty()
			}
			_, err = tc.sp.Step(s, tc.el)
			if err == nil {
				t.Fatalf("Step accepted %s", tc.el)
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("rejection text\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestStackRejectionIsLazy: a rejected Stack.Step returns its message
// unformatted, as a format with its arguments or a message with its
// element, so the checker's speculative probes format nothing.
func TestStackRejectionIsLazy(t *testing.T) {
	st := NewStack("S")
	two, err := Accepts(st, trace.Trace{PushElement("S", 1, 5, true), PushElement("S", 2, 7, true)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		s      State
		el     trace.Element
		allocs float64 // the rejection, and its argument list when it has one
	}{
		{"pop-value", two, PopElement("S", 3, true, 5), 2},
		{"pop-fail-nonempty", two, PopElement("S", 3, false, 0), 3},
		{"pop-fail-value", two, PopElement("S", 3, false, 3), 1},
		{"pop-empty", st.Init(), PopElement("S", 3, true, 5), 1},
		{"push-fail", st.Init(), PushElement("S", 3, 1, false), 1},
	} {
		_, err := st.Step(tc.s, tc.el)
		switch err.(type) {
		case *rejection, *rejectionf:
		default:
			t.Errorf("%s: Step returned %T, want an unformatted rejection", tc.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = st.Step(tc.s, tc.el) }); n > tc.allocs {
			t.Errorf("%s: a rejected Step allocates %.0f times, want at most %.0f", tc.name, n, tc.allocs)
		}
	}
}
