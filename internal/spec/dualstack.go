package spec

import (
	"calgo/internal/history"
	"calgo/internal/trace"
)

// DualStack is the concurrency-aware specification of a dual stack
// (Scherer & Scott's dual data structures, discussed in §6): a stack whose
// pop operations wait for a value instead of failing on empty. The paper
// observes that CA-traces streamline dual-structure specifications by
// removing the need for separate "request" and "follow-up" linearization
// points: a push fulfilling a waiting pop forms a single CA-element
//
//	S.{(t, push(v) ▷ true), (t', pop() ▷ (true,v))}
//
// which leaves the stack state unchanged (the push is immediately popped),
// while non-waiting operations remain ordinary singleton stack elements.
type DualStack struct {
	Obj history.ObjectID
}

var (
	_ Spec            = DualStack{}
	_ PendingResolver = DualStack{}
)

// NewDualStack returns the dual stack specification for object o.
func NewDualStack(o history.ObjectID) DualStack { return DualStack{Obj: o} }

// Name implements Spec.
func (d DualStack) Name() string { return "dual-stack(" + string(d.Obj) + ")" }

// Object implements Spec.
func (d DualStack) Object() history.ObjectID { return d.Obj }

// Init implements Spec.
func (d DualStack) Init() State { return stackState{} }

// MaxElementSize implements Spec: fulfilment pairs a push with a pop.
func (d DualStack) MaxElementSize() int { return 2 }

// Step implements Spec.
func (d DualStack) Step(s State, el trace.Element) (State, error) {
	if el.Object != d.Obj {
		return nil, rejectf("element on object %s, spec constrains %s", el.Object, d.Obj)
	}
	switch len(el.Ops) {
	case 1:
		return Stack{Obj: d.Obj}.Step(s, el)
	case 2:
		push, pop := el.Ops[0], el.Ops[1]
		if push.Method != MethodPush {
			push, pop = pop, push
		}
		if push.Method != MethodPush || pop.Method != MethodPop {
			return nil, reject("a fulfilment pairs one push with one pop", el)
		}
		if push.Arg.Kind != history.KindInt || push.Ret != history.Bool(true) {
			return nil, reject("fulfilment push must be int ▷ true", el)
		}
		if pop.Ret != history.Pair(true, push.Arg.N) {
			return nil, rejectf("fulfilled pop must return the pushed value %d: %s", push.Arg.N, el)
		}
		return s, nil // push immediately popped: state unchanged
	default:
		return nil, rejectf("dual stack elements have one or two operations, got %d", len(el.Ops))
	}
}

// ResolveReturns implements PendingResolver.
func (d DualStack) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	switch len(ops) {
	case 1:
		return Stack{Obj: d.Obj}.ResolveReturns(s, ops, pendingIdx)
	case 2:
		var pushArg history.Value
		for _, op := range ops {
			if op.Method == MethodPush {
				pushArg = op.Arg
			}
		}
		if pushArg.IsZero() {
			return nil
		}
		rets := make([]history.Value, 0, len(pendingIdx))
		for _, i := range pendingIdx {
			if ops[i].Method == MethodPush {
				rets = append(rets, history.Bool(true))
			} else {
				rets = append(rets, history.Pair(true, pushArg.N))
			}
		}
		return [][]history.Value{rets}
	default:
		return nil
	}
}

// FulfilmentElement builds the pair element of a push fulfilling a
// waiting pop.
func FulfilmentElement(o history.ObjectID, pusher history.ThreadID, v int64, popper history.ThreadID) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: pusher, Object: o, Method: MethodPush, Arg: history.Int(v), Ret: history.Bool(true)},
		trace.Operation{Thread: popper, Object: o, Method: MethodPop, Arg: history.Unit(), Ret: history.Pair(true, v)},
	)
}
