package spec

import (
	"sort"
	"strconv"
	"strings"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the priority-queue interface.
const (
	MethodInsert     history.Method = "insert"
	MethodExtractMin history.Method = "extractmin"
)

// pqueueState is an immutable min-priority queue of integers with a
// canonical sorted encoding; the first encoded element is the minimum.
type pqueueState struct {
	items string // sorted canonical encoding, e.g. "1,2,3"
}

func (p pqueueState) Key() string { return p.items }

func (p pqueueState) slice() []int64 {
	if p.items == "" {
		return nil
	}
	parts := strings.Split(p.items, ",")
	out := make([]int64, len(parts))
	for i, s := range parts {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			panic("spec: corrupt pqueue state " + p.items)
		}
		out[i] = n
	}
	return out
}

func encodePQueue(items []int64) pqueueState {
	if len(items) == 0 {
		return pqueueState{}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	parts := make([]string, len(items))
	for i, v := range items {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return pqueueState{items: strings.Join(parts, ",")}
}

func (p pqueueState) insert(v int64) pqueueState { return encodePQueue(append(p.slice(), v)) }

func (p pqueueState) extractMin() (pqueueState, int64, bool) {
	items := p.slice()
	if len(items) == 0 {
		return p, 0, false
	}
	return encodePQueue(items[1:]), items[0], true
}

// PQueue is the sequential min-priority-queue specification: insert(v) ▷
// true inserts, extractmin() ▷ (true,v) removes and returns the minimum,
// extractmin() ▷ (false,0) is admitted only on the empty queue. Every
// element is a singleton. Unambiguous priority-queue histories (distinct
// inserted values) admit the log-linear specialized monitor in
// calgo/internal/monitor.
type PQueue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = PQueue{}
	_ PendingResolver = PQueue{}
)

// NewPQueue returns the min-priority-queue specification for object o.
func NewPQueue(o history.ObjectID) PQueue { return PQueue{Obj: o} }

// Name implements Spec.
func (p PQueue) Name() string { return "pqueue(" + string(p.Obj) + ")" }

// Object implements Spec.
func (p PQueue) Object() history.ObjectID { return p.Obj }

// Init implements Spec.
func (p PQueue) Init() State { return pqueueState{} }

// MaxElementSize implements Spec: the priority-queue spec is sequential.
func (p PQueue) MaxElementSize() int { return 1 }

// Step implements Spec.
func (p PQueue) Step(s State, el trace.Element) (State, error) {
	if el.Object != p.Obj {
		return nil, rejectf("element on object %s, spec constrains %s", el.Object, p.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, rejectf("pqueue elements are singletons, got %d operations", len(el.Ops))
	}
	ps, ok := s.(pqueueState)
	if !ok {
		return nil, rejectf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodInsert:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
			return nil, rejectf("insert must be int ▷ true, got %s ▷ %s", op.Arg, op.Ret)
		}
		return ps.insert(op.Arg.N), nil
	case MethodExtractMin:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
			return nil, rejectf("extractmin must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if op.Ret.N != 0 {
				return nil, reject("failed extractmin must return (false,0)", el)
			}
			if ps.items != "" {
				return nil, rejectf("extractmin may fail only on the empty queue, state [%s]", ps.items)
			}
			return ps, nil
		}
		next, v, nonEmpty := ps.extractMin()
		if !nonEmpty {
			return nil, reject("successful extractmin on empty queue", el)
		}
		if v != op.Ret.N {
			return nil, rejectf("extractmin returned %d but minimum is %d", op.Ret.N, v)
		}
		return next, nil
	default:
		return nil, rejectf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver.
func (p PQueue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	ps, ok := s.(pqueueState)
	if !ok {
		return nil
	}
	switch ops[0].Method {
	case MethodInsert:
		return [][]history.Value{{history.Bool(true)}}
	case MethodExtractMin:
		if _, v, nonEmpty := ps.extractMin(); nonEmpty {
			return [][]history.Value{{history.Pair(true, v)}}
		}
		return [][]history.Value{{history.Pair(false, 0)}}
	}
	return nil
}
