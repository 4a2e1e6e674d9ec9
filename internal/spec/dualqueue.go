package spec

import (
	"calgo/internal/history"
	"calgo/internal/trace"
)

// DualQueue is the concurrency-aware specification of a dual FIFO queue
// (Scherer & Scott): a queue whose deq operations wait for a value instead
// of failing on empty. An enq fulfilling a waiting deq forms the single
// CA-element
//
//	Q.{(t, enq(v) ▷ true), (t', deq() ▷ (true,v))}
//
// Unlike the dual *stack*, where a push immediately popped is valid in any
// state, FIFO order makes the fulfilment pair valid ONLY on the empty
// queue: a deq must take the head, so enq(v)·deq▷v adjacent requires no
// older data. (The implementation guarantees this structurally: it
// fulfils reservations only while the queue holds reservations, i.e. no
// data.) Singleton elements follow the ordinary FIFO queue specification.
type DualQueue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = DualQueue{}
	_ PendingResolver = DualQueue{}
)

// NewDualQueue returns the dual queue specification for object o.
func NewDualQueue(o history.ObjectID) DualQueue { return DualQueue{Obj: o} }

// Name implements Spec.
func (d DualQueue) Name() string { return "dual-queue(" + string(d.Obj) + ")" }

// Object implements Spec.
func (d DualQueue) Object() history.ObjectID { return d.Obj }

// Init implements Spec.
func (d DualQueue) Init() State { return queueState{} }

// MaxElementSize implements Spec.
func (d DualQueue) MaxElementSize() int { return 2 }

// Step implements Spec.
func (d DualQueue) Step(s State, el trace.Element) (State, error) {
	if el.Object != d.Obj {
		return nil, rejectf("element on object %s, spec constrains %s", el.Object, d.Obj)
	}
	switch len(el.Ops) {
	case 1:
		return Queue{Obj: d.Obj}.Step(s, el)
	case 2:
		qs, ok := s.(queueState)
		if !ok {
			return nil, rejectf("foreign state %T", s)
		}
		enq, deq := el.Ops[0], el.Ops[1]
		if enq.Method != MethodEnq {
			enq, deq = deq, enq
		}
		if enq.Method != MethodEnq || deq.Method != MethodDeq {
			return nil, reject("a fulfilment pairs one enq with one deq", el)
		}
		if enq.Arg.Kind != history.KindInt || enq.Ret != history.Bool(true) {
			return nil, reject("fulfilment enq must be int ▷ true", el)
		}
		if deq.Ret != history.Pair(true, enq.Arg.N) {
			return nil, rejectf("fulfilled deq must return the enqueued value %d: %s", enq.Arg.N, el)
		}
		if qs.items != "" {
			return nil, rejectf("fulfilment requires the empty queue (FIFO), state [%s]: %s", qs.items, el)
		}
		return qs, nil
	default:
		return nil, rejectf("dual queue elements have one or two operations, got %d", len(el.Ops))
	}
}

// ResolveReturns implements PendingResolver.
func (d DualQueue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	switch len(ops) {
	case 1:
		return Queue{Obj: d.Obj}.ResolveReturns(s, ops, pendingIdx)
	case 2:
		var enqArg history.Value
		for _, op := range ops {
			if op.Method == MethodEnq {
				enqArg = op.Arg
			}
		}
		if enqArg.IsZero() {
			return nil
		}
		rets := make([]history.Value, 0, len(pendingIdx))
		for _, i := range pendingIdx {
			if ops[i].Method == MethodEnq {
				rets = append(rets, history.Bool(true))
			} else {
				rets = append(rets, history.Pair(true, enqArg.N))
			}
		}
		return [][]history.Value{rets}
	default:
		return nil
	}
}

// QFulfilmentElement builds the pair element of an enq fulfilling a
// waiting deq.
func QFulfilmentElement(o history.ObjectID, enqer history.ThreadID, v int64, deqer history.ThreadID) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: enqer, Object: o, Method: MethodEnq, Arg: history.Int(v), Ret: history.Bool(true)},
		trace.Operation{Thread: deqer, Object: o, Method: MethodDeq, Arg: history.Unit(), Ret: history.Pair(true, v)},
	)
}
