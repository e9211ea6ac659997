package mpi

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/transport"
)

// RankFailedError reports that a collective operation could not complete
// because one or more member ranks are dead. Ranks holds the dead
// members as communicator ranks, ascending. Every surviving rank of a
// failed collective eventually returns this error (or a correct result,
// if it finished before needing anything from the dead rank) — never a
// hang, never a silently wrong answer.
type RankFailedError struct {
	Ranks []int
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank(s) %v failed", e.Ranks)
}

// AsRankFailed unwraps err to a *RankFailedError if one is in its chain.
func AsRankFailed(err error) (*RankFailedError, bool) {
	var rf *RankFailedError
	if errors.As(err, &rf) {
		return rf, true
	}
	return nil, false
}

// FailureOptions tunes the failure detector's two timers. Zero fields
// take defaults, which fit the simulator's timescale; mpirun's -chaos
// runs set 250/50 ms of wall clock.
type FailureOptions struct {
	// Suspicion is the quiet period (nanoseconds, device clock) a
	// collective receive waits before suspecting something is wrong and
	// sweeping the communicator for dead ranks. It must comfortably
	// exceed the longest legitimate gap between protocol messages.
	Suspicion int64
	// PingTimeout bounds one liveness probe's wait for its answer.
	PingTimeout int64
}

const (
	// PingsToDeclareDead is how many unanswered probes in a row declare a
	// rank dead. A slow-but-alive rank answers probes at interrupt level,
	// so stragglers survive any number of them; only a genuinely dead
	// receive path runs out.
	PingsToDeclareDead = 3
	// maxSuspicions bounds how many all-alive sweeps a single receive
	// tolerates before giving up with a stall error (distinct from
	// RankFailedError). It keeps a logic bug from looping forever.
	maxSuspicions = 64
)

// Fill returns o with zero fields defaulted. The defaults suit the
// simulator's timescales, and they must keep winning a race: the
// detector declares a silent rank dead after Suspicion +
// PingsToDeclareDead·PingTimeout (35 ms) and reports a typed error, while
// a reliable stream that gives up on the same rank (its probe budget
// spent) poisons the whole endpoint. The stream takes about a minute to
// get there: its probe timeout doubles from the round trip it measured
// (or reliab.RTO, 25 ms, before it measured one) up to 256 times
// reliab.RTO, and it spends 20 probes — 90 s from 25 ms, 59 s from the
// 1 ms floor — because that cap is tied to the constant, not to the
// measured timeout. reliab's TestDriverOutlastsTheFailureDetector holds
// the stream to at least ten times the detector's time whatever its
// estimator reads.
func (o FailureOptions) Fill() FailureOptions {
	if o.Suspicion <= 0 {
		o.Suspicion = 20_000_000 // 20ms
	}
	if o.PingTimeout <= 0 {
		o.PingTimeout = 5_000_000 // 5ms
	}
	return o
}

// failureDetector rides the device's liveness probe (transport.Wire.Ping):
// a rank whose probes go unanswered past the suspicion budget is
// declared dead, permanently. Deaths are recorded as world ranks so
// every communicator on the runtime shares one view.
type failureDetector struct {
	opts FailureOptions
	wire transport.Wire // Ping probes, FailPeer fences the dead
	dead map[int]bool   // world rank -> declared dead
}

// SetFailureDetection arms the runtime's failure detector. The device
// must have a wire (transport.Wire) to probe with; the probe path is
// the same stream-control machinery the reliable streams use for RTO
// probes, answered at interrupt level by any live peer.
// Collective receives then return RankFailedError instead of blocking
// forever when a member dies.
func (rt *Runtime) SetFailureDetection(opts FailureOptions) error {
	if rt.wire == nil {
		return fmt.Errorf("mpi: %T has no wire to send liveness probes on", rt.ep)
	}
	rt.fd = &failureDetector{opts: opts.Fill(), wire: rt.wire, dead: make(map[int]bool)}
	return nil
}

// DeadRanks returns the world ranks the detector has declared dead,
// ascending (nil when detection is off or nothing died).
func (rt *Runtime) DeadRanks() []int {
	if rt.fd == nil || len(rt.fd.dead) == 0 {
		return nil
	}
	out := make([]int, 0, len(rt.fd.dead))
	for w := range rt.fd.dead {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// sweep probes every not-yet-dead member of group (world ranks) except
// me, declaring dead any that leaves PingsToDeclareDead probes unanswered, and
// reports whether it found new deaths. Kills are permanent and probing
// is deterministic, so independent sweeps by different survivors
// converge on the same dead set.
func (fd *failureDetector) sweep(me int, group []int) bool {
	anyNew := false
	for _, w := range group {
		if w == me || fd.dead[w] {
			continue
		}
		alive := false
		for i := 0; i < PingsToDeclareDead; i++ {
			if fd.wire.Ping(w, fd.opts.PingTimeout) {
				alive = true
				break
			}
		}
		if !alive {
			fd.dead[w] = true
			anyNew = true
			fd.wire.FailPeer(w)
		}
	}
	return anyNew
}

// deadError returns a RankFailedError naming the communicator's dead
// members, or nil when all are alive (or detection is off).
func (c *Comm) deadError() error {
	fd := c.rt.fd
	if fd == nil || len(fd.dead) == 0 {
		return nil
	}
	var ranks []int
	for i, w := range c.group {
		if fd.dead[w] {
			ranks = append(ranks, i)
		}
	}
	if len(ranks) == 0 {
		return nil
	}
	return &RankFailedError{Ranks: ranks}
}

// recvMatchFT is the failure-aware collective receive every CollCtx
// receive routes through. Without a detector it is exactly recvMatch.
// With one, it waits in suspicion-sized slices: on each expiry it
// sweeps the communicator, reports any dead member as RankFailedError,
// and otherwise keeps waiting (a straggler answered its probes) up to
// maxSuspicions sweeps.
func (c *Comm) recvMatchFT(pred func(*transport.Message) bool) (transport.Message, error) {
	fd := c.rt.fd
	if fd == nil {
		return c.rt.recvMatch(pred)
	}
	stalls := 0
	for {
		if err := c.deadError(); err != nil {
			return transport.Message{}, err
		}
		m, ok, err := c.rt.recvMatchTimeout(pred, fd.opts.Suspicion)
		if err != nil {
			return transport.Message{}, err
		}
		if ok {
			return m, nil
		}
		if fd.sweep(c.rt.ep.Rank(), c.group) {
			continue // the loop top reports the new deaths
		}
		if err := c.deadError(); err != nil {
			return transport.Message{}, err
		}
		stalls++
		if stalls >= maxSuspicions {
			return transport.Message{}, fmt.Errorf(
				"mpi: collective receive stalled for %d suspicion periods with every rank alive", stalls)
		}
	}
}

// CheckFailures sweeps the communicator for dead ranks and returns a
// RankFailedError naming any, or nil when all members are alive (or
// failure detection is off). Receiver-driven repair loops call it when
// their own timeout budget expires, so a NACK protocol waiting on a
// dead sender degrades into a typed error instead of its give-up error.
func (cc CollCtx) CheckFailures() error {
	if cc.c.rt.fd == nil {
		return nil
	}
	cc.c.rt.fd.sweep(cc.c.rt.ep.Rank(), cc.c.group)
	return cc.c.deadError()
}

// Shrink builds the survivor communicator after a failure: a fresh
// context over this communicator's live members, in the same relative
// order. It first sweeps every member, so all survivors — including
// ones whose collective happened to complete before the failure was
// visible to them — derive the identical dead set and thus the
// identical shrunken group and context, with no extra communication
// (kills are permanent, and the context derivation is a pure function
// of the parent context and the dead set).
//
// The topology re-canonicalizes automatically: projecting the device
// map onto the survivor group drops dead ranks, elects new segment
// leaders (the lowest surviving member) where a leader died, and
// removes entirely dead segments. A dead root or dead leader therefore
// needs no special case — the caller reruns the collective on the new
// communicator with a surviving root.
func (c *Comm) Shrink() (*Comm, error) {
	fd := c.rt.fd
	if fd == nil {
		return nil, errors.New("mpi: Shrink requires failure detection (Runtime.SetFailureDetection)")
	}
	fd.sweep(c.rt.ep.Rank(), c.group)
	var survivors []int
	salt := uint32(2166136261) // FNV-32a offset basis
	for _, w := range c.group {
		if fd.dead[w] {
			// Fold the dead member into the context salt (FNV-32a), so
			// different dead sets give the shrunken communicator
			// different contexts.
			for shift := 24; shift >= 0; shift -= 8 {
				salt ^= uint32(w >> shift & 0xff)
				salt *= 16777619
			}
			continue
		}
		survivors = append(survivors, w)
	}
	if len(survivors) == len(c.group) {
		return nil, errors.New("mpi: Shrink with no dead ranks")
	}
	ctx := c.childContext(salt)
	c.derived++
	return newComm(c.rt, ctx, survivors, c.algs)
}
