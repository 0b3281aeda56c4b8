// Snapshot support for the controller: deep-copy cloning for warm-start
// sweeps and an exported, serializable state for machine checkpoints.
//
// The aliasing rules (see DESIGN.md, "Snapshot contract"): a clone shares
// nothing mutable with its parent. Per-bank queues are slices of value
// structs and are copied; the in-flight op is a fresh pointer; Stats is
// deep-copied (WearByBank slice, WritesByRatio map), and the event-horizon
// bounds are copied with it. Params and Config are pure value types and
// copy by assignment.
package nvm

import (
	"fmt"

	"mct/internal/config"
)

// Clone returns a deep copy of s: mutating the clone's WearByBank or
// WritesByRatio never perturbs the original.
func (s Stats) Clone() Stats {
	n := s
	n.WearByBank = append([]float64(nil), s.WearByBank...)
	if s.WritesByRatio != nil {
		n.WritesByRatio = make(map[float64]uint64, len(s.WritesByRatio))
		for k, v := range s.WritesByRatio {
			n.WritesByRatio[k] = v
		}
	}
	return n
}

func (b bankState) clone() bankState {
	n := b // op is held by value and copies with the struct
	n.writes = append([]writeReq(nil), b.writes...)
	n.eager = append([]writeReq(nil), b.eager...)
	return n
}

// Clone returns an independent deep copy of the controller at its current
// simulated time: banks (queues, in-flight ops, row buffers), write-power
// tokens, drain/wear-quota state and statistics. Advancing one controller
// never perturbs the other.
func (c *Controller) Clone() *Controller {
	n := *c
	n.banks = make([]bankState, len(c.banks))
	for i := range c.banks {
		n.banks[i] = c.banks[i].clone()
	}
	n.tokens = append([]uint64(nil), c.tokens...)
	n.ev = append([]uint64(nil), c.ev...)
	n.st = c.st.Clone()
	return &n
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

func reqToState(r writeReq) WriteReqState {
	return WriteReqState{Addr: r.addr, Enq: r.enq, Cancels: r.cancels, Eager: r.eager}
}

func reqFromState(s WriteReqState) writeReq {
	return writeReq{addr: s.Addr, enq: s.Enq, cancels: s.Cancels, eager: s.Eager}
}

// reqsToState returns nil for an empty queue, drained or never used, so a
// snapshot does not depend on the queue's history (gob, too, sends
// neither).
func reqsToState(rs []writeReq) []WriteReqState {
	if len(rs) == 0 {
		return nil
	}
	out := make([]WriteReqState, len(rs))
	for i, r := range rs {
		out[i] = reqToState(r)
	}
	return out
}

func reqsFromState(ss []WriteReqState) []writeReq {
	if ss == nil {
		return nil
	}
	out := make([]writeReq, len(ss))
	for i, s := range ss {
		out[i] = reqFromState(s)
	}
	return out
}

// Snapshot captures the controller's complete state for checkpointing. A
// bank's op is emitted only while it can still be observed (freeAt past
// swept): which skipped banks still carry a completed op's marker depends
// on the visit schedule, and the bytes must not.
//
// pend, ev and nextEvent are not captured: they derive from the queues and
// freeAt, and FromSnapshot recomputes them.
func (c *Controller) Snapshot() Snapshot {
	banks := make([]BankSnapshot, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		bs := BankSnapshot{
			FreeAt:   b.freeAt,
			Writes:   reqsToState(b.writes),
			Eager:    reqsToState(b.eager),
			OpenRow:  b.openRow,
			RowValid: b.rowValid,
		}
		if b.opValid && b.freeAt > c.swept {
			bs.Op = &InflightState{
				Req:         reqToState(b.op.req),
				PulseStart:  b.op.pulseStart,
				Done:        b.op.done,
				Ratio:       b.op.ratio,
				Cancellable: b.op.cancellable,
				Token:       b.op.token,
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
// [0, maxCancels] (a write stops being cancellable at the limit), an eager
// queue entry without the eager flag, or an eager write on the demand
// queue that was never cancelled (only a cancelled eager write is requeued
// there). queue is "demand", "eager" or "" for an in-flight op.
func checkReq(r WriteReqState, queue string, maxCancels int) error {
	switch {
	case r.Cancels < 0 || r.Cancels > maxCancels:
		return fmt.Errorf("cancelled %d times, the limit is %d", r.Cancels, maxCancels)
	case queue == "eager" && !r.Eager:
		return fmt.Errorf("eager queue entry is not an eager write")
	case queue == "demand" && r.Eager && r.Cancels == 0:
		return fmt.Errorf("demand queue entry is an eager write that was never cancelled")
	}
	return nil
}

// checkQueue applies checkReq to every entry of one bank's queue.
func checkQueue(bank int, queue string, rs []WriteReqState, maxCancels int) error {
	for j, r := range rs {
		if err := checkReq(r, queue, maxCancels); err != nil {
			return fmt.Errorf("nvm: snapshot bank %d %s queue entry %d: %w", bank, queue, j, err)
		}
	}
	return nil
}

// FromSnapshot rebuilds a controller from a state captured with Snapshot.
// The rebuilt controller continues the identical simulation. A snapshot is
// a trust boundary (checkpoints are read back from disk), so beyond the
// slice shapes it checks what the controller indexes or counts by: every
// op's power token is in range, and the queue lengths match the queues.
// It also rejects queue entries and ops no run can produce (checkReq, and
// a pulse that ends before it starts).
func FromSnapshot(s Snapshot) (*Controller, error) {
	c, err := New(s.Config, s.Params)
	if err != nil {
		return nil, err
	}
	if len(s.Banks) != s.Params.Banks {
		return nil, fmt.Errorf("nvm: snapshot has %d banks, params say %d", len(s.Banks), s.Params.Banks)
	}
	if len(s.Tokens) != s.Params.MaxConcurrentWrites {
		return nil, fmt.Errorf("nvm: snapshot has %d tokens, params say %d", len(s.Tokens), s.Params.MaxConcurrentWrites)
	}
	if len(s.Stats.WearByBank) != s.Params.Banks {
		return nil, fmt.Errorf("nvm: snapshot wear vector has %d banks, params say %d", len(s.Stats.WearByBank), s.Params.Banks)
	}
	var writes, eager int
	for i := range s.Banks {
		bs := &s.Banks[i]
		b := bankState{
			freeAt:   bs.FreeAt,
			writes:   reqsFromState(bs.Writes),
			eager:    reqsFromState(bs.Eager),
			openRow:  bs.OpenRow,
			rowValid: bs.RowValid,
		}
		if err := checkQueue(i, "demand", bs.Writes, s.Params.MaxCancellations); err != nil {
			return nil, err
		}
		if err := checkQueue(i, "eager", bs.Eager, s.Params.MaxCancellations); err != nil {
			return nil, err
		}
		if bs.Op != nil {
			if bs.Op.Token < 0 || bs.Op.Token >= s.Params.MaxConcurrentWrites {
				return nil, fmt.Errorf("nvm: snapshot bank %d holds power token %d, params have %d", i, bs.Op.Token, s.Params.MaxConcurrentWrites)
			}
			if err := checkReq(bs.Op.Req, "", s.Params.MaxCancellations); err != nil {
				return nil, fmt.Errorf("nvm: snapshot bank %d in-flight op: %w", i, err)
			}
			if bs.Op.PulseStart > bs.Op.Done {
				return nil, fmt.Errorf("nvm: snapshot bank %d in-flight op starts at %d, after it ends at %d", i, bs.Op.PulseStart, bs.Op.Done)
			}
			b.op = inflight{
				req:         reqFromState(bs.Op.Req),
				pulseStart:  bs.Op.PulseStart,
				done:        bs.Op.Done,
				ratio:       bs.Op.Ratio,
				cancellable: bs.Op.Cancellable,
				token:       bs.Op.Token,
			}
			b.opValid = true
		}
		c.banks[i] = b
		writes += len(b.writes)
		eager += len(b.eager)
		if len(b.writes) > 0 || len(b.eager) > 0 {
			c.pend |= 1 << uint(i)
		}
	}
	if s.WriteQLen != writes || s.EagerQLen != eager {
		return nil, fmt.Errorf("nvm: snapshot queue lengths %d/%d, queues hold %d/%d", s.WriteQLen, s.EagerQLen, writes, eager)
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
		c.st.WritesByRatio = make(map[float64]uint64)
	}
	// Every emitted op is still observable, so a restored controller needs
	// no sweep history (swept = 0); pend and the horizon are rebuilt from
	// the queues.
	c.refreshEvents()
	return c, nil
}
