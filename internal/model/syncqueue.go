package model

import (
	"slices"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// SQOp is one operation of a client program over the synchronous queue:
// a put of value V or a take.
type SQOp struct {
	IsPut bool
	V     int64
}

// Put builds a put operation.
func Put(v int64) SQOp { return SQOp{IsPut: true, V: v} }

// Take builds a take operation.
func Take() SQOp { return SQOp{} }

// SQConfig describes a bounded client program over the synchronous queue
// (the paper's second exchanger client, [9]/[22]). Each operation is a
// single Try attempt, mirroring the real implementation's attempt round:
// the asymmetric offer/hole protocol where only opposite kinds match.
type SQConfig struct {
	// Object is the queue's object id (default "SQ").
	Object history.ObjectID
	// Programs[t] lists the operations of thread t+1, in order.
	Programs [][]SQOp
}

// Program counters of the synchronous-queue step machine.
const (
	qpcIdle  = iota
	qpcInit  // CAS(g, null, n)
	qpcPass  // withdraw own offer after the wait window
	qpcReadG // cur = g; branch on kind
	qpcMatch // CAS(cur.hole, null, n) for an opposite-kind offer
	qpcClean // CAS(g, cur, null)
	qpcFail  // log the failed attempt
	qpcRet
	qpcDone
)

// sqOffer is a modelled offer: kind, owner, datum and hole.
type sqOffer struct {
	IsPut bool
	Tid   history.ThreadID
	Data  int64
	Hole  int // HoleNull, HoleFail, or index of the matching offer
}

func (o sqOffer) appendKey(k []byte) []byte {
	k = appendInts(appendInts(k, int(o.Tid), o.Hole), o.Data)
	return appendBools(k, o.IsPut)
}

type sqThread struct {
	pc      int
	op      int
	n       int // own offer
	cur     int // read offer
	matched bool
	retOK   bool
	retV    int64
}

func (th sqThread) appendKey(k []byte) []byte {
	k = appendInts(appendInts(k, th.pc, th.op, th.n, th.cur), th.retV)
	return appendBools(k, th.matched, th.retOK)
}

func (th sqThread) done() bool { return th.pc == qpcDone }

// SQState is one state of the synchronous-queue model.
type SQState struct {
	state[sqThread]
	cfg    *SQConfig
	Offers []sqOffer
	G      int
}

var _ sched.State = (*SQState)(nil)

// NewSyncQueue returns the initial state of the synchronous-queue model.
func NewSyncQueue(cfg SQConfig) *SQState {
	if cfg.Object == "" {
		cfg.Object = "SQ"
	}
	st := &SQState{cfg: &cfg, G: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, sqThread{pc: qpcIdle, n: -1, cur: -1})
	}
	return st
}

// Object returns the modelled queue's object id.
func (s *SQState) Object() history.ObjectID { return s.cfg.Object }

// Key implements sched.State.
func (s *SQState) Key() string {
	k := appendInts(s.appendKey(s.keyBuf(len(s.Offers)+2)), s.G)
	return string(appendSection(k, s.Offers))
}

func (s *SQState) clone() *SQState {
	c := *s
	c.state = s.state.clone()
	c.Offers = slices.Clone(s.Offers)
	return &c
}

func (s *SQState) opOf(t int) SQOp { return s.cfg.Programs[t][s.Threads[t].op] }

func (s *SQState) invEvent(t int) history.Event {
	op := s.opOf(t)
	if op.IsPut {
		return history.Inv(tid(t), s.cfg.Object, spec.MethodPut, history.Int(op.V))
	}
	return history.Inv(tid(t), s.cfg.Object, spec.MethodTake, history.Unit())
}

func (s *SQState) failElement(t int) trace.Element {
	op := s.opOf(t)
	if op.IsPut {
		return trace.Singleton(trace.Operation{
			Thread: tid(t), Object: s.cfg.Object, Method: spec.MethodPut,
			Arg: history.Int(op.V), Ret: history.Bool(false),
		})
	}
	return trace.Singleton(trace.Operation{
		Thread: tid(t), Object: s.cfg.Object, Method: spec.MethodTake,
		Arg: history.Unit(), Ret: history.Pair(false, 0),
	})
}

// Successors implements sched.State.
func (s *SQState) Successors() []sched.Succ { return s.successors(s.step) }

func (s *SQState) step(t int, out []sched.Succ) []sched.Succ {
	th := s.Threads[t]
	if th.done() {
		return out
	}
	op := s.opOf(t)
	c := s.clone()
	nt := &c.Threads[t]
	mk := func(label string) []sched.Succ {
		return append(out, sched.Succ{Thread: t, Label: label, Next: c})
	}
	switch th.pc {
	case qpcIdle:
		c.log(s.invEvent(t))
		c.Offers = append(c.Offers, sqOffer{IsPut: op.IsPut, Tid: tid(t), Data: op.V, Hole: HoleNull})
		nt.n = len(c.Offers) - 1
		nt.cur = -1
		nt.matched = false
		nt.pc = qpcInit
		return mk("inv")
	case qpcInit:
		if s.G == -1 {
			c.G = th.n
			nt.pc = qpcPass
			return mk("INIT")
		}
		nt.pc = qpcReadG
		return mk("init-miss")
	case qpcPass:
		if s.Offers[th.n].Hole == HoleNull {
			c.Offers[th.n].Hole = HoleFail
			c.record(s.failElement(t))
			nt.retOK, nt.retV = false, 0
			nt.pc = qpcRet
			return mk("PASS")
		}
		partner := s.Offers[th.n].Hole
		nt.retOK = true
		if op.IsPut {
			nt.retV = op.V
		} else {
			nt.retV = s.Offers[partner].Data
		}
		nt.pc = qpcRet
		return mk("matched")
	case qpcReadG:
		nt.cur = s.G
		switch {
		case s.G == -1:
			nt.pc = qpcFail
		case s.Offers[s.G].IsPut != op.IsPut:
			nt.pc = qpcMatch
		case s.Offers[s.G].Hole != HoleNull:
			// Same kind, settled: help clean, then fail this attempt.
			nt.pc = qpcClean
		default:
			nt.pc = qpcFail
		}
		return mk("read-g")
	case qpcMatch:
		if s.Offers[th.cur].Hole == HoleNull {
			c.Offers[th.cur].Hole = th.n
			cur := s.Offers[th.cur]
			put, take := cur, sqOffer{IsPut: op.IsPut, Tid: tid(t), Data: op.V}
			if !put.IsPut {
				put, take = take, put
			}
			c.record(spec.HandOffElement(s.cfg.Object, put.Tid, put.Data, take.Tid))
			nt.matched = true
		}
		nt.pc = qpcClean
		if nt.matched {
			return mk("MATCH")
		}
		return mk("match-miss")
	case qpcClean:
		label := "clean-miss"
		if s.G == th.cur && s.Offers[th.cur].Hole != HoleNull {
			c.G = -1
			label = "CLEAN"
		}
		if th.matched {
			nt.retOK = true
			if op.IsPut {
				nt.retV = op.V
			} else {
				nt.retV = s.Offers[th.cur].Data
			}
			nt.pc = qpcRet
		} else {
			nt.pc = qpcFail
		}
		return mk(label)
	case qpcFail:
		c.record(s.failElement(t))
		nt.retOK, nt.retV = false, 0
		nt.pc = qpcRet
		return mk("FAIL")
	case qpcRet:
		if op.IsPut {
			c.log(history.Res(tid(t), s.cfg.Object, spec.MethodPut, history.Bool(th.retOK)))
		} else {
			c.log(history.Res(tid(t), s.cfg.Object, spec.MethodTake, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.n, nt.cur, nt.matched = -1, -1, false
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = qpcIdle
		} else {
			nt.pc = qpcDone
		}
		return mk("res")
	default:
		return out
	}
}
