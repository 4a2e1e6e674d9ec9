package spec

import (
	"sort"
	"strconv"
	"strings"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the set interface.
const (
	MethodAdd      history.Method = "add"
	MethodRemove   history.Method = "remove"
	MethodContains history.Method = "contains"
)

// setState is an immutable integer set with a canonical sorted encoding.
type setState struct {
	items string // sorted canonical encoding, e.g. "1,2,3"
}

func (s setState) Key() string { return s.items }

func (s setState) slice() []int64 {
	if s.items == "" {
		return nil
	}
	parts := strings.Split(s.items, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			panic("spec: corrupt set state " + s.items)
		}
		out[i] = n
	}
	return out
}

func encodeSet(items []int64) setState {
	if len(items) == 0 {
		return setState{}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	parts := make([]string, len(items))
	for i, v := range items {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return setState{items: strings.Join(parts, ",")}
}

func (s setState) has(v int64) bool {
	for _, x := range s.slice() {
		if x == v {
			return true
		}
	}
	return false
}

func (s setState) add(v int64) setState { return encodeSet(append(s.slice(), v)) }
func (s setState) remove(v int64) setState {
	items := s.slice()
	for i, x := range items {
		if x == v {
			return encodeSet(append(items[:i], items[i+1:]...))
		}
	}
	return s
}

// Set is the sequential integer-set specification: add(v) ▷ b with b true
// iff v was absent (and is now a member), remove(v) ▷ b with b true iff v
// was present (and is now removed), contains(v) ▷ b reporting membership.
// Every element is a singleton. Unambiguous set histories (each value added
// at most once) admit the log-linear specialized monitor in
// calgo/internal/monitor.
type Set struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Set{}
	_ PendingResolver = Set{}
)

// NewSet returns the integer-set specification for object o.
func NewSet(o history.ObjectID) Set { return Set{Obj: o} }

// Name implements Spec.
func (st Set) Name() string { return "set(" + string(st.Obj) + ")" }

// Object implements Spec.
func (st Set) Object() history.ObjectID { return st.Obj }

// Init implements Spec.
func (st Set) Init() State { return setState{} }

// MaxElementSize implements Spec: the set specification is sequential.
func (st Set) MaxElementSize() int { return 1 }

// Step implements Spec.
func (st Set) Step(s State, el trace.Element) (State, error) {
	if el.Object != st.Obj {
		return nil, rejectf("element on object %s, spec constrains %s", el.Object, st.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, rejectf("set elements are singletons, got %d operations", len(el.Ops))
	}
	ss, ok := s.(setState)
	if !ok {
		return nil, rejectf("foreign state %T", s)
	}
	op := el.Ops[0]
	if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool {
		return nil, rejectf("set methods are int ▷ bool, got %s ▷ %s", op.Arg, op.Ret)
	}
	v, ret := op.Arg.N, op.Ret.B
	switch op.Method {
	case MethodAdd:
		if ss.has(v) {
			if ret {
				return nil, rejectf("add(%d) ▷ true but %d is already a member", v, v)
			}
			return ss, nil
		}
		if !ret {
			return nil, rejectf("add(%d) ▷ false but %d is absent", v, v)
		}
		return ss.add(v), nil
	case MethodRemove:
		if ss.has(v) {
			if !ret {
				return nil, rejectf("remove(%d) ▷ false but %d is a member", v, v)
			}
			return ss.remove(v), nil
		}
		if ret {
			return nil, rejectf("remove(%d) ▷ true but %d is absent", v, v)
		}
		return ss, nil
	case MethodContains:
		if ss.has(v) != ret {
			return nil, rejectf("contains(%d) ▷ %v but membership is %v", v, ret, ss.has(v))
		}
		return ss, nil
	default:
		return nil, rejectf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver: pending set operations
// complete with the return value determined by the current state.
func (st Set) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	ss, ok := s.(setState)
	if !ok {
		return nil
	}
	if ops[0].Arg.Kind != history.KindInt {
		return nil
	}
	v := ops[0].Arg.N
	switch ops[0].Method {
	case MethodAdd:
		return [][]history.Value{{history.Bool(!ss.has(v))}}
	case MethodRemove, MethodContains:
		return [][]history.Value{{history.Bool(ss.has(v))}}
	}
	return nil
}
