package model

import (
	"slices"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// Cell is a modelled stack cell.
type Cell struct {
	Data int64
	Next int // cell index or -1
}

func (c Cell) appendKey(k []byte) []byte {
	return appendInts(appendInts(k, c.Next), c.Data)
}

// StackOp is one operation of a client program over the central stack.
type StackOp struct {
	// IsPush selects push(V); otherwise the op is pop().
	IsPush bool
	V      int64
}

// Push builds a push operation.
func Push(v int64) StackOp { return StackOp{IsPush: true, V: v} }

// Pop builds a pop operation.
func Pop() StackOp { return StackOp{} }

// StackConfig describes a bounded client program over the one-shot central
// stack of Figure 2.
type StackConfig struct {
	// Object is the stack's object id (default "S").
	Object history.ObjectID
	// Programs[t] lists the operations of thread t+1, in order.
	Programs [][]StackOp
}

// Program counters of the central-stack step machine.
const (
	spcIdle     = iota // next step emits inv
	spcPushRead        // line 11: h = top (and allocate the cell)
	spcPushCAS         // line 13: CAS(&top, h, n)
	spcPopRead         // lines 16-18: h = top; empty check
	spcPopCAS          // line 20: CAS(&top, h, n)
	spcRet             // emit the response action
	spcDone
)

type stackThread struct {
	pc    int
	op    int
	h     int // read top snapshot (cell index or -1)
	n     int // allocated cell index (push)
	retOK bool
	retV  int64
}

func (th stackThread) appendKey(k []byte) []byte {
	k = appendInts(appendInts(k, th.pc, th.op, th.h, th.n), th.retV)
	return appendBools(k, th.retOK)
}

func (th stackThread) done() bool { return th.pc == spcDone }

// StackState is one state of the central-stack model.
type StackState struct {
	state[stackThread]
	cfg   *StackConfig
	Cells []Cell
	Top   int
}

var _ sched.State = (*StackState)(nil)

// NewStack returns the initial state of the central-stack model.
func NewStack(cfg StackConfig) *StackState {
	if cfg.Object == "" {
		cfg.Object = "S"
	}
	st := &StackState{cfg: &cfg, Top: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, stackThread{pc: spcIdle, h: -1, n: -1})
	}
	return st
}

// Object returns the modelled stack's object id.
func (s *StackState) Object() history.ObjectID { return s.cfg.Object }

// Key implements sched.State.
func (s *StackState) Key() string {
	k := appendInts(s.appendKey(s.keyBuf(len(s.Cells)+2)), s.Top)
	return string(appendSection(k, s.Cells))
}

func (s *StackState) clone() *StackState {
	c := *s
	c.state = s.state.clone()
	c.Cells = slices.Clone(s.Cells)
	return &c
}

// Successors implements sched.State.
func (s *StackState) Successors() []sched.Succ { return s.successors(s.step) }

func (s *StackState) step(t int, out []sched.Succ) []sched.Succ {
	th := s.Threads[t]
	if th.done() {
		return out
	}
	id := tid(t)
	obj := s.cfg.Object
	c := s.clone()
	nt := &c.Threads[t]
	mk := func(label string) []sched.Succ {
		return append(out, sched.Succ{Thread: t, Label: label, Next: c})
	}
	switch th.pc {
	case spcIdle:
		op := s.cfg.Programs[t][th.op]
		if op.IsPush {
			c.log(history.Inv(id, obj, spec.MethodPush, history.Int(op.V)))
			nt.pc = spcPushRead
		} else {
			c.log(history.Inv(id, obj, spec.MethodPop, history.Unit()))
			nt.pc = spcPopRead
		}
		return mk("inv")
	case spcPushRead:
		// h = top; n = new Cell(data, h). The allocation touches only
		// unpublished memory, so read+alloc is one atomic step.
		op := s.cfg.Programs[t][th.op]
		c.Cells = append(c.Cells, Cell{Data: op.V, Next: s.Top})
		nt.h = s.Top
		nt.n = len(c.Cells) - 1
		nt.pc = spcPushCAS
		return mk("read-top")
	case spcPushCAS:
		op := s.cfg.Programs[t][th.op]
		label := "push-miss"
		if s.Top == th.h {
			c.Top = th.n
			label = "PUSH"
		}
		ok := label == "PUSH"
		c.record(spec.PushElement(obj, id, op.V, ok))
		nt.retOK = ok
		nt.pc = spcRet
		return mk(label)
	case spcPopRead:
		if s.Top == -1 {
			// Empty: the read of top is the linearization point.
			c.record(spec.PopElement(obj, id, false, 0))
			nt.retOK, nt.retV = false, 0
			nt.pc = spcRet
			return mk("POP-EMPTY")
		}
		nt.h = s.Top
		nt.pc = spcPopCAS
		return mk("read-top")
	case spcPopCAS:
		if s.Top == th.h {
			c.Top = s.Cells[th.h].Next
			c.record(spec.PopElement(obj, id, true, s.Cells[th.h].Data))
			nt.retOK, nt.retV = true, s.Cells[th.h].Data
			nt.pc = spcRet
			return mk("POP")
		}
		c.record(spec.PopElement(obj, id, false, 0))
		nt.retOK, nt.retV = false, 0
		nt.pc = spcRet
		return mk("pop-miss")
	case spcRet:
		op := s.cfg.Programs[t][th.op]
		if op.IsPush {
			c.log(history.Res(id, obj, spec.MethodPush, history.Bool(th.retOK)))
		} else {
			c.log(history.Res(id, obj, spec.MethodPop, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.h, nt.n = -1, -1
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = spcIdle
		} else {
			nt.pc = spcDone
		}
		return mk("res")
	default:
		return out
	}
}
