package model

import (
	"fmt"
	"slices"
	"sort"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// ISConfig describes the immediate-snapshot model: participant t+1 writes
// Values[t] and descends levels. The model is register-accurate: each
// level write and each read of another participant's level register is its
// own atomic step, so the exploration checks the Borowsky-Gafni algorithm
// under non-atomic scans — the property its correctness argument actually
// hinges on.
type ISConfig struct {
	// Object is the snapshot's id (default "IS").
	Object history.ObjectID
	// Values[t] is the value participant t+1 writes (one-shot).
	Values []int64
}

// Program counters of the immediate-snapshot step machine.
const (
	ipcIdle     = iota // emit inv, write own value
	ipcSetLevel        // level[p] = lev
	ipcScan            // read level[scanIdx]
	ipcCheck           // |members| == lev ? return : descend
	ipcRet
	ipcDoneIS
)

type isThread struct {
	pc      int
	lev     int
	scanIdx int
	members int // bitmask of participants seen at level <= lev
	retCard int
}

func (th isThread) appendKey(k []byte) []byte {
	return appendInts(k, th.pc, th.lev, th.scanIdx, th.members, th.retCard)
}

func (th isThread) done() bool { return th.pc == ipcDoneIS }

// ISState is one state of the immediate-snapshot model. Its trace holds
// each operation as a singleton, appended at return in return order.
type ISState struct {
	state[isThread]
	cfg    *ISConfig
	Levels []int
}

var _ sched.State = (*ISState)(nil)

// NewSnapshot returns the initial state of the immediate-snapshot model.
func NewSnapshot(cfg ISConfig) *ISState {
	if cfg.Object == "" {
		cfg.Object = "IS"
	}
	n := len(cfg.Values)
	st := &ISState{cfg: &cfg, Levels: make([]int, n)}
	for i := range st.Levels {
		st.Levels[i] = n + 1
	}
	for range cfg.Values {
		st.Threads = append(st.Threads, isThread{pc: ipcIdle})
	}
	return st
}

// Object returns the modelled snapshot's object id.
func (s *ISState) Object() history.ObjectID { return s.cfg.Object }

// Project groups the return-ordered singleton operations into blocks by
// view cardinality, ordered by cardinality — the quiescent derivation of
// DeriveTrace, inside the model. Apply it to AuxTrace before checking the
// spec.
func (s *ISState) Project(tr trace.Trace) trace.Trace {
	byCard := map[int64][]trace.Operation{}
	var cards []int64
	for _, el := range tr {
		op := el.Ops[0]
		c := op.Ret.N
		if len(byCard[c]) == 0 {
			cards = append(cards, c)
		}
		byCard[c] = append(byCard[c], op)
	}
	sort.Slice(cards, func(i, j int) bool { return cards[i] < cards[j] })
	var out trace.Trace
	for _, c := range cards {
		el, err := trace.NewElement(byCard[c]...)
		if err != nil {
			// Invalid block (e.g. duplicate thread): surface it as an
			// impossible trace so the spec check fails loudly.
			return trace.Trace{}
		}
		out = append(out, el)
	}
	return out
}

// Key implements sched.State.
func (s *ISState) Key() string {
	k := s.appendKey(s.keyBuf(len(s.Levels) + 1))
	return string(appendInts(appendLen(k, len(s.Levels)), s.Levels...))
}

func (s *ISState) clone() *ISState {
	c := *s
	c.state = s.state.clone()
	c.Levels = slices.Clone(s.Levels)
	return &c
}

// Successors implements sched.State.
func (s *ISState) Successors() []sched.Succ { return s.successors(s.step) }

func (s *ISState) step(t int, out []sched.Succ) []sched.Succ {
	th := s.Threads[t]
	if th.done() {
		return out
	}
	id := tid(t)
	obj := s.cfg.Object
	n := len(s.cfg.Values)
	c := s.clone()
	nt := &c.Threads[t]
	mk := func(label string) []sched.Succ {
		return append(out, sched.Succ{Thread: t, Label: label, Next: c})
	}
	switch th.pc {
	case ipcIdle:
		// inv + value write (the value register is written once, before
		// any level activity, so folding them is safe).
		c.log(history.Inv(id, obj, spec.MethodUpdate, history.Int(s.cfg.Values[t])))
		nt.lev = n
		nt.pc = ipcSetLevel
		return mk("inv")
	case ipcSetLevel:
		// level[p] = lev — one register write.
		c.Levels[t] = th.lev
		nt.scanIdx = 0
		nt.members = 0
		nt.pc = ipcScan
		return mk(fmt.Sprintf("set-level[%d]", th.lev))
	case ipcScan:
		// Read level[scanIdx] — one register read per step.
		if s.Levels[th.scanIdx] <= th.lev {
			nt.members |= 1 << th.scanIdx
		}
		nt.scanIdx++
		if nt.scanIdx == n {
			nt.pc = ipcCheck
		}
		return mk("read-level")
	case ipcCheck:
		// Local: count members; terminate at |members| == lev.
		count := 0
		for q := 0; q < n; q++ {
			if th.members&(1<<q) != 0 {
				count++
			}
		}
		if count == th.lev {
			nt.retCard = count
			nt.pc = ipcRet
			return mk("terminate")
		}
		nt.lev--
		if nt.lev < 1 {
			// Unreachable if the algorithm is correct: the exploration
			// flags it as a deadlocked thread.
			nt.pc = ipcDoneIS
			nt.retCard = -1
			return mk("fell-through")
		}
		nt.pc = ipcSetLevel
		return mk("descend")
	case ipcRet:
		// Self-inclusion is checked structurally here: the view must
		// contain the caller.
		if th.members&(1<<t) == 0 {
			nt.retCard = -1 // flagged by the terminal check
		}
		c.record(trace.Singleton(trace.Operation{
			Thread: id, Object: obj, Method: spec.MethodUpdate,
			Arg: history.Int(s.cfg.Values[t]), Ret: history.Pair(true, int64(th.retCard)),
		}))
		c.log(history.Res(id, obj, spec.MethodUpdate, history.Pair(true, int64(th.retCard))))
		nt.pc = ipcDoneIS
		return mk("res")
	default:
		return out
	}
}
