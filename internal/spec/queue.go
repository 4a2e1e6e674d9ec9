package spec

import (
	"strconv"
	"strings"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the FIFO queue interface.
const (
	MethodEnq history.Method = "enq"
	MethodDeq history.Method = "deq"
)

// queueState is an immutable FIFO queue of integers; the first encoded
// element is the head.
type queueState struct {
	items string
}

func (q queueState) Key() string { return q.items }

func (q queueState) enq(v int64) queueState {
	enc := strconv.FormatInt(v, 10)
	if q.items == "" {
		return queueState{items: enc}
	}
	return queueState{items: q.items + "," + enc}
}

func (q queueState) deq() (queueState, int64, bool) {
	if q.items == "" {
		return q, 0, false
	}
	i := strings.IndexByte(q.items, ',')
	if i < 0 {
		n, err := strconv.ParseInt(q.items, 10, 64)
		if err != nil {
			panic("spec: corrupt queue state " + q.items)
		}
		return queueState{}, n, true
	}
	n, err := strconv.ParseInt(q.items[:i], 10, 64)
	if err != nil {
		panic("spec: corrupt queue state " + q.items)
	}
	return queueState{items: q.items[i+1:]}, n, true
}

// Queue is the sequential FIFO queue specification: enq(v) ▷ true enqueues,
// deq() ▷ (true,v) dequeues the head, deq() ▷ (false,0) is admitted only on
// the empty queue. It serves as a cross-validation target for the checkers
// and as the specification of elimination-based queues ([17]).
type Queue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Queue{}
	_ PendingResolver = Queue{}
)

// NewQueue returns the FIFO queue specification for object o.
func NewQueue(o history.ObjectID) Queue { return Queue{Obj: o} }

// Name implements Spec.
func (q Queue) Name() string { return "queue(" + string(q.Obj) + ")" }

// Object implements Spec.
func (q Queue) Object() history.ObjectID { return q.Obj }

// Init implements Spec.
func (q Queue) Init() State { return queueState{} }

// MaxElementSize implements Spec.
func (q Queue) MaxElementSize() int { return 1 }

// Step implements Spec.
func (q Queue) Step(s State, el trace.Element) (State, error) {
	if el.Object != q.Obj {
		return nil, rejectf("element on object %s, spec constrains %s", el.Object, q.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, rejectf("queue elements are singletons, got %d operations", len(el.Ops))
	}
	qs, ok := s.(queueState)
	if !ok {
		return nil, rejectf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodEnq:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
			return nil, rejectf("enq must be int ▷ true, got %s ▷ %s", op.Arg, op.Ret)
		}
		return qs.enq(op.Arg.N), nil
	case MethodDeq:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
			return nil, rejectf("deq must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if op.Ret.N != 0 {
				return nil, reject("failed deq must return (false,0)", el)
			}
			if qs.items != "" {
				return nil, rejectf("deq may fail only on the empty queue, state [%s]", qs.items)
			}
			return qs, nil
		}
		next, v, nonEmpty := qs.deq()
		if !nonEmpty {
			return nil, reject("successful deq on empty queue", el)
		}
		if v != op.Ret.N {
			return nil, rejectf("deq returned %d but head is %d", op.Ret.N, v)
		}
		return next, nil
	default:
		return nil, rejectf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver.
func (q Queue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	qs, ok := s.(queueState)
	if !ok {
		return nil
	}
	switch ops[0].Method {
	case MethodEnq:
		return [][]history.Value{{history.Bool(true)}}
	case MethodDeq:
		if _, v, nonEmpty := qs.deq(); nonEmpty {
			return [][]history.Value{{history.Pair(true, v)}}
		}
		return [][]history.Value{{history.Pair(false, 0)}}
	}
	return nil
}
