// Snapshot support for the controller: deep-copy cloning for warm-start
// sweeps and an exported, serializable state for machine checkpoints.
//
// The aliasing rules (see DESIGN.md, "Snapshot contract"): a clone shares
// nothing mutable with its parent. The banks, with their in-flight ops held
// by value, the queue arena every bank's queues are threaded through, the
// power tokens and the event-horizon bounds are flat slices of value
// structs and are copied; Stats is deep-copied (WearByBank slice,
// WritesByRatio map). Params and Config are pure value types and copy by
// assignment.
//
// The serializable Snapshot lists each bank's queues as slices, oldest
// first, and its in-flight op as a record with an end time: Snapshot and
// FromSnapshot convert to and from the arena, so checkpoint bytes do not
// depend on arena slot positions.
package nvm

import (
	"fmt"
	"maps"

	"mct/internal/config"
)

// Clone returns a deep copy of s: mutating the clone's WearByBank or
// WritesByRatio never perturbs the original.
func (s Stats) Clone() Stats {
	n := s
	n.WearByBank = append([]float64(nil), s.WearByBank...)
	n.WritesByRatio = maps.Clone(s.WritesByRatio)
	return n
}

// Clone returns an independent deep copy of the controller at its current
// simulated time: banks (in-flight ops, row buffers), queued writes,
// write-power tokens, drain/wear-quota state and statistics. Advancing one
// controller never perturbs the other. The copy has no members
// (SetMembers).
func (c *Controller) Clone() *Controller { return c.CloneInto(nil) }

// CloneInto is Clone into dst, reusing its slices and WritesByRatio map
// (nil dst allocates a new controller): copying a controller into one
// cloned from it earlier allocates nothing.
func (c *Controller) CloneInto(dst *Controller) *Controller {
	if dst == nil {
		dst = new(Controller)
	}
	n := *dst
	*dst = *c
	dst.members, dst.diverged = nil, 0
	dst.banks = append(n.banks[:0], c.banks...)
	dst.arena = append(n.arena[:0], c.arena...)
	dst.tokens = append(n.tokens[:0], c.tokens...)
	dst.ev = append(n.ev[:0], c.ev...)
	dst.st = c.st
	dst.st.WearByBank = append(n.st.WearByBank[:0], c.st.WearByBank...)
	dst.st.WritesByRatio = n.st.WritesByRatio
	if c.st.WritesByRatio == nil {
		dst.st.WritesByRatio = nil
	} else {
		if dst.st.WritesByRatio == nil {
			dst.st.WritesByRatio = make(RatioCounts, len(c.st.WritesByRatio))
		}
		clear(dst.st.WritesByRatio)
		for k, v := range c.st.WritesByRatio {
			dst.st.WritesByRatio[k] = v
		}
	}
	return dst
}

// WriteReqState is the serializable form of one queued write.
type WriteReqState struct {
	Addr    uint64
	Enq     uint64
	Cancels int
	Eager   bool
}

// InflightState is the serializable form of a write pulse occupying a bank.
type InflightState struct {
	Req         WriteReqState
	PulseStart  uint64
	Done        uint64
	Ratio       float64
	Cancellable bool
	Token       int
}

// BankSnapshot is the serializable state of one bank.
type BankSnapshot struct {
	FreeAt   uint64
	Op       *InflightState
	Writes   []WriteReqState
	Eager    []WriteReqState
	OpenRow  uint64
	RowValid bool
}

// Snapshot is the complete serializable state of a Controller.
type Snapshot struct {
	Params Params
	Config config.Config

	Banks     []BankSnapshot
	BusFreeAt uint64
	Tokens    []uint64
	Now       uint64

	WriteQLen int
	EagerQLen int
	DrainMode bool

	Forced    bool
	NextSlice uint64

	Stats Stats
}

// queueState lists q oldest first. An empty queue is nil, so a snapshot
// does not depend on the queue's history (gob, too, sends neither).
func (c *Controller) queueState(q fifo) []WriteReqState {
	if q.n == 0 {
		return nil
	}
	out := make([]WriteReqState, q.n)
	for k, i := 0, q.head; k < len(out); k, i = k+1, c.arena[i].next {
		r := c.arena[i].req
		out[k] = WriteReqState{Addr: r.addr, Enq: r.enq, Cancels: int(r.cancels), Eager: r.eager}
	}
	return out
}

// reqFromState converts a checked WriteReqState; checkReq bounds Cancels
// by Params.MaxCancellations, which Validate bounds to int32.
func reqFromState(s WriteReqState) writeReq {
	return writeReq{addr: s.Addr, enq: s.Enq, cancels: int32(s.Cancels), eager: s.Eager} //mctlint:ignore cyclecast checkReq bounds Cancels by MaxCancellations ≤ MaxInt32
}

// Snapshot captures the controller's complete state for checkpointing. A
// bank's op is emitted only while it can still be observed (freeAt past
// swept): which skipped banks still carry a completed op's marker depends
// on the visit schedule, and the bytes must not.
//
// pend, dpend, ev and nextEvent are not captured: they derive from the
// queues and freeAt, and FromSnapshot recomputes them. Nor are arena slot
// positions: each queue is listed oldest first.
func (c *Controller) Snapshot() Snapshot {
	banks := make([]BankSnapshot, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		bs := BankSnapshot{
			FreeAt:   b.freeAt,
			Writes:   c.queueState(b.writes),
			Eager:    c.queueState(b.eager),
			OpenRow:  b.openRow,
			RowValid: b.rowValid,
		}
		if op := &b.op; b.opValid && b.freeAt > c.swept {
			bs.Op = &InflightState{
				Req:         WriteReqState{Addr: op.addr, Enq: op.enq, Cancels: int(op.cancels), Eager: op.eager},
				PulseStart:  op.pulseStart,
				Done:        b.freeAt,
				Ratio:       op.ratio,
				Cancellable: op.cancellable,
				Token:       op.token,
			}
		}
		banks[i] = bs
	}
	return Snapshot{
		Params:    c.p,
		Config:    c.cfg,
		Banks:     banks,
		BusFreeAt: c.busFreeAt,
		Tokens:    append([]uint64(nil), c.tokens...),
		Now:       c.now,
		WriteQLen: c.writeQLen,
		EagerQLen: c.eagerQLen,
		DrainMode: c.drainMode,
		Forced:    c.forced,
		NextSlice: c.nextSlice,
		Stats:     c.Stats(),
	}
}

// checkReq rejects a write no run can produce: a cancel count outside
// [0, maxCancels] (a write stops being cancellable at the limit), an
// enqueue time past the controller's time now (Write, a cancelling Read and
// EagerWrite all enqueue at or before it), an eager queue entry without
// the eager flag, or an eager write on the demand queue that was never
// cancelled (only a cancelled eager write is requeued there). queue is
// "demand", "eager" or "" for an in-flight op.
func checkReq(r WriteReqState, queue string, maxCancels int, now uint64) error {
	switch {
	case r.Cancels < 0 || r.Cancels > maxCancels:
		return fmt.Errorf("cancelled %d times, the limit is %d", r.Cancels, maxCancels)
	case r.Enq > now:
		return fmt.Errorf("enqueued at %d, after the controller's time %d", r.Enq, now)
	case queue == "eager" && !r.Eager:
		return fmt.Errorf("eager queue entry is not an eager write")
	case queue == "demand" && r.Eager && r.Cancels == 0:
		return fmt.Errorf("demand queue entry is an eager write that was never cancelled")
	}
	return nil
}

// checkQueue applies checkReq to every entry of one bank's queue.
func checkQueue(bank int, queue string, rs []WriteReqState, maxCancels int, now uint64) error {
	for j, r := range rs {
		if err := checkReq(r, queue, maxCancels, now); err != nil {
			return fmt.Errorf("nvm: snapshot bank %d %s queue entry %d: %w", bank, queue, j, err)
		}
	}
	return nil
}

// checkOp rejects an in-flight op no run can produce: a power token
// outside the token array, a write checkReq rejects, a pulse that ends
// before it starts, or one that does not end when its bank frees up.
func checkOp(op *InflightState, freeAt uint64, p Params, now uint64) error {
	switch {
	case op.Token < 0 || op.Token >= p.MaxConcurrentWrites:
		return fmt.Errorf("holds power token %d, params have %d", op.Token, p.MaxConcurrentWrites)
	case op.PulseStart > op.Done:
		return fmt.Errorf("starts at %d, after it ends at %d", op.PulseStart, op.Done)
	case op.Done != freeAt:
		return fmt.Errorf("ends at %d, but its bank frees up at %d", op.Done, freeAt)
	}
	return checkReq(op.Req, "", p.MaxCancellations, now)
}

// FromSnapshot rebuilds a controller from a state captured with Snapshot.
// The rebuilt controller continues the identical simulation. A snapshot is
// a trust boundary (checkpoints are read back from disk), so beyond the
// slice shapes it checks what the controller indexes or counts by: every
// op's power token is in range, the queue lengths match the queues, and
// the queues fit the arena (demand writes plus in-flight ops within
// WriteQueueCap + Banks, as arenaSize argues for every run, and eager
// writes within EagerQueueCap). It also rejects queue entries and ops no
// run can produce (checkReq, checkOp).
func FromSnapshot(s Snapshot) (*Controller, error) {
	c, err := New(s.Config, s.Params)
	if err != nil {
		return nil, err
	}
	p := s.Params
	if len(s.Banks) != p.Banks {
		return nil, fmt.Errorf("nvm: snapshot has %d banks, params say %d", len(s.Banks), p.Banks)
	}
	if len(s.Tokens) != p.MaxConcurrentWrites {
		return nil, fmt.Errorf("nvm: snapshot has %d tokens, params say %d", len(s.Tokens), p.MaxConcurrentWrites)
	}
	if len(s.Stats.WearByBank) != p.Banks {
		return nil, fmt.Errorf("nvm: snapshot wear vector has %d banks, params say %d", len(s.Stats.WearByBank), p.Banks)
	}
	var writes, eager, ops int
	for i := range s.Banks {
		bs := &s.Banks[i]
		if err := checkQueue(i, "demand", bs.Writes, p.MaxCancellations, s.Now); err != nil {
			return nil, err
		}
		if err := checkQueue(i, "eager", bs.Eager, p.MaxCancellations, s.Now); err != nil {
			return nil, err
		}
		if bs.Op != nil {
			if err := checkOp(bs.Op, bs.FreeAt, p, s.Now); err != nil {
				return nil, fmt.Errorf("nvm: snapshot bank %d in-flight op: %w", i, err)
			}
			ops++
		}
		writes += len(bs.Writes)
		eager += len(bs.Eager)
	}
	if s.WriteQLen != writes || s.EagerQLen != eager {
		return nil, fmt.Errorf("nvm: snapshot queue lengths %d/%d, queues hold %d/%d", s.WriteQLen, s.EagerQLen, writes, eager)
	}
	if writes+ops > p.WriteQueueCap+p.Banks || eager > p.EagerQueueCap {
		return nil, fmt.Errorf("nvm: snapshot queues %d demand writes and %d in-flight ops (at most %d together) and %d eager writes (at most %d)",
			writes, ops, p.WriteQueueCap+p.Banks, eager, p.EagerQueueCap)
	}
	for i := range s.Banks {
		bs := &s.Banks[i]
		b := &c.banks[i]
		b.freeAt, b.openRow, b.rowValid = bs.FreeAt, bs.OpenRow, bs.RowValid
		for _, r := range bs.Writes {
			c.pushBack(&b.writes, reqFromState(r))
		}
		for _, r := range bs.Eager {
			c.pushBack(&b.eager, reqFromState(r))
		}
		if op := bs.Op; op != nil {
			r := reqFromState(op.Req)
			b.op = inflight{addr: r.addr, enq: r.enq, pulseStart: op.PulseStart, ratio: op.Ratio,
				token: op.Token, cancels: r.cancels, eager: r.eager, cancellable: op.Cancellable}
			b.opValid = true
		}
		if b.writes.n > 0 || b.eager.n > 0 {
			c.pend |= 1 << uint(i)
		}
		if b.writes.n > 0 {
			c.dpend |= 1 << uint(i)
		}
	}
	copy(c.tokens, s.Tokens)
	c.busFreeAt = s.BusFreeAt
	c.now = s.Now
	c.writeQLen = s.WriteQLen
	c.eagerQLen = s.EagerQLen
	c.drainMode = s.DrainMode
	c.forced = s.Forced
	c.nextSlice = s.NextSlice
	c.st = s.Stats.Clone()
	if c.st.WritesByRatio == nil {
		c.st.WritesByRatio = make(RatioCounts)
	}
	// Every emitted op is still observable, so a restored controller needs
	// no sweep history (swept = 0); pend and the horizon are rebuilt from
	// the queues.
	c.refreshEvents()
	return c, nil
}
