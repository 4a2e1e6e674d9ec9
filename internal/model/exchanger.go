// Package model encodes the paper's algorithms as fine-grained atomic step
// machines for exhaustive exploration by calgo/internal/sched. Each model
// mirrors the published pseudocode line by line: every shared-memory read,
// CAS and auxiliary-trace assignment is one atomic step, and the recorded
// history and auxiliary CA-trace are part of the explored state. Together
// with the rely/guarantee checks in calgo/internal/rg and the proof-outline
// assertions implemented here, exploring a model discharges the §5 proof
// obligations on a bounded universe.
package model

import (
	"slices"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// Hole pointer encodings for modelled offers.
const (
	HoleNull = -1 // hole == null
	HoleFail = -2 // hole == fail sentinel
)

// Offer is a modelled Offer object: the allocating thread (the auxiliary
// tid field of §5), the offered datum, and the hole pointer (an offer
// index, HoleNull or HoleFail).
type Offer struct {
	Tid  history.ThreadID
	Data int64
	Hole int
}

func (o Offer) appendKey(k []byte) []byte {
	return appendInts(appendInts(k, int(o.Tid), o.Hole), o.Data)
}

// Program counters of the exchanger step machine, mirroring Figure 1.
const (
	pcIdle    = iota // between operations; next step emits inv + alloc
	pcInit           // line 15: CAS(g, null, n)
	pcPass           // line 18: CAS(n.hole, null, fail) after the wait
	pcReadG          // line 25: cur = g (branching on null)
	pcXchg           // line 29: s = CAS(cur.hole, null, n)
	pcClean          // line 31: CAS(g, cur, null)
	pcLogFail        // line 35: h := h · fail (the FAIL action)
	pcRet            // return: emit the response action
	pcDone           // program finished
)

// ExchangerConfig describes a bounded client program over one exchanger.
type ExchangerConfig struct {
	// Object is the exchanger's object id (default "E").
	Object history.ObjectID
	// Programs[t] lists the values thread t+1 exchanges, in order.
	Programs [][]int64
	// Bug optionally injects a known defect, used to demonstrate that the
	// exploration catches real errors:
	//
	//	"drop-pass-log"    — PASS withdraws the offer without logging the
	//	                     failed operation (breaks the postcondition and
	//	                     the terminal CAL check);
	//	"wrong-swap-values" — XCHG logs the swap with the values not
	//	                     crossing (breaks assertion B and the spec);
	//	"late-swap-log"    — XCHG performs the CAS but logs the swap only
	//	                     at the active thread's return, breaking the
	//	                     atomicity of the instrumented action (breaks
	//	                     rely/guarantee justification).
	Bug string
}

type exchThread struct {
	pc      int
	op      int // index into the thread's program
	n       int // own offer index, -1 none
	cur     int // read offer index, -1 none
	s       bool
	retOK   bool
	retV    int64
	viewLen int  // |T_E|tid| at operation start (the logical variable T)
	lateLog bool // "late-swap-log" bug: swap logging deferred to return
}

// appendKey leaves out viewLen: the logical variable is fixed by 𝒯 and
// the thread's position in its program (TestKeyExact holds this).
func (th exchThread) appendKey(k []byte) []byte {
	k = appendInts(appendInts(k, th.pc, th.op, th.n, th.cur), th.retV)
	return appendBools(k, th.s, th.retOK, th.lateLog)
}

func (th exchThread) done() bool { return th.pc == pcDone }

// ExchangerState is one state of the exchanger model. It is exported so
// the rg package and tests can inspect it; treat it as immutable.
type ExchangerState struct {
	state[exchThread]
	cfg    *ExchangerConfig
	Offers []Offer
	G      int // offer index installed in g, or -1
}

var _ sched.State = (*ExchangerState)(nil)

// NewExchanger returns the initial state of the exchanger model.
func NewExchanger(cfg ExchangerConfig) *ExchangerState {
	if cfg.Object == "" {
		cfg.Object = "E"
	}
	st := &ExchangerState{cfg: &cfg, G: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, exchThread{pc: pcIdle, n: -1, cur: -1})
	}
	return st
}

// Object returns the modelled exchanger's object id.
func (s *ExchangerState) Object() history.ObjectID { return s.cfg.Object }

// arg returns the value thread t's current operation exchanges.
func (s *ExchangerState) arg(t int) int64 {
	return s.cfg.Programs[t][s.Threads[t].op]
}

// Key implements sched.State.
func (s *ExchangerState) Key() string {
	k := appendInts(s.appendKey(s.keyBuf(len(s.Offers)+2)), s.G)
	return string(appendSection(k, s.Offers))
}

func (s *ExchangerState) clone() *ExchangerState {
	c := *s
	c.state = s.state.clone()
	c.Offers = slices.Clone(s.Offers)
	return &c
}

// viewLen counts the CA-elements of 𝒯 mentioning thread id — |T_E|tid|.
func (s *ExchangerState) viewLenOf(id history.ThreadID) int {
	n := 0
	for _, el := range s.Trace {
		if el.Mentions(id) {
			n++
		}
	}
	return n
}

// Successors implements sched.State.
func (s *ExchangerState) Successors() []sched.Succ { return s.successors(s.step) }

// step computes thread t's single atomic step from this state.
func (s *ExchangerState) step(t int, out []sched.Succ) []sched.Succ {
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
	case pcIdle:
		// inv: record the invocation and allocate the offer (lines 12-13).
		v := s.arg(t)
		c.log(history.Inv(id, obj, spec.MethodExchange, history.Int(v)))
		c.Offers = append(c.Offers, Offer{Tid: id, Data: v, Hole: HoleNull})
		nt.n = len(c.Offers) - 1
		nt.cur = -1
		nt.s = false
		nt.viewLen = c.viewLenOf(id)
		nt.pc = pcInit
		return mk("inv")
	case pcInit:
		// line 15: CAS(g, null, n).
		if s.G == -1 {
			c.G = th.n
			nt.pc = pcPass // wait window ends whenever scheduled
			return mk("INIT")
		}
		nt.pc = pcReadG
		return mk("init-miss")
	case pcPass:
		// line 18: CAS(n.hole, null, fail).
		if s.Offers[th.n].Hole == HoleNull {
			c.Offers[th.n].Hole = HoleFail
			if s.cfg.Bug != "drop-pass-log" {
				c.record(spec.FailElement(obj, id, s.Offers[th.n].Data))
			}
			nt.retOK, nt.retV = false, s.Offers[th.n].Data
			nt.pc = pcRet
			return mk("PASS")
		}
		// A partner filled our hole: it logged the swap at its XCHG.
		partner := s.Offers[th.n].Hole
		nt.retOK, nt.retV = true, s.Offers[partner].Data
		nt.pc = pcRet
		return mk("matched")
	case pcReadG:
		// lines 25-27: cur = g; branch on null.
		nt.cur = s.G
		if s.G == -1 {
			nt.pc = pcLogFail
		} else {
			nt.pc = pcXchg
		}
		return mk("read-g")
	case pcXchg:
		// line 29: s = CAS(cur.hole, null, n).
		if s.Offers[th.cur].Hole == HoleNull {
			c.Offers[th.cur].Hole = th.n
			partner := s.Offers[th.cur]
			switch s.cfg.Bug {
			case "wrong-swap-values":
				// Defect: the logged swap's values do not cross.
				c.record(spec.SwapElement(obj, partner.Tid, s.arg(t), id, partner.Data))
			case "late-swap-log":
				// Defect: the auxiliary assignment is deferred to the
				// return, breaking the atomicity of the XCHG action.
				nt.lateLog = true
			default:
				c.record(spec.SwapElement(obj, partner.Tid, partner.Data, id, s.arg(t)))
			}
			nt.s = true
			nt.pc = pcClean
			return mk("XCHG")
		}
		nt.s = false
		nt.pc = pcClean
		return mk("xchg-miss")
	case pcClean:
		// line 31: CAS(g, cur, null) — unconditional cleanup.
		label := "clean-miss"
		if s.G == th.cur {
			c.G = -1
			label = "CLEAN"
		}
		if th.s {
			nt.retOK, nt.retV = true, s.Offers[th.cur].Data
			nt.pc = pcRet
		} else {
			nt.pc = pcLogFail
		}
		return mk(label)
	case pcLogFail:
		// line 35: h := h · (E.{(tid, ex(v) ▷ false, v)}) — the FAIL action.
		v := s.arg(t)
		c.record(spec.FailElement(obj, id, v))
		nt.retOK, nt.retV = false, v
		nt.pc = pcRet
		return mk("FAIL")
	case pcRet:
		// Emit the response action and move to the next operation.
		if th.lateLog && th.cur >= 0 {
			partner := s.Offers[th.cur]
			c.record(spec.SwapElement(obj, partner.Tid, partner.Data, id, s.arg(t)))
			nt.lateLog = false
		}
		c.log(history.Res(id, obj, spec.MethodExchange, history.Pair(th.retOK, th.retV)))
		nt.op++
		nt.n, nt.cur, nt.s = -1, -1, false
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = pcIdle
		} else {
			nt.pc = pcDone
		}
		return mk("res")
	default:
		return out
	}
}
