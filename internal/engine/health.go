package engine

// This file is deliberately outside the //splidt:packettime regime: health
// observation and the watchdog are management-plane code that runs on wall
// clock, never on the per-packet path.

import (
	"errors"
	"fmt"
	"time"

	"splidt/internal/telemetry/flight"
)

// Session lifecycle fault errors. Both surface through Session.Err and wrap
// into the closed-session error Feed-family methods return, so errors.Is
// works against either the closed sentinel or the cause.
var (
	// ErrShutdownTimeout reports that Close (or a context abort) hit the
	// configured ShutdownTimeout with a worker still running — a stuck shard
	// the deadline-bounded shutdown refused to wait out. The engine stays
	// poisoned (no further sessions) because the stuck worker still owns its
	// replica.
	ErrShutdownTimeout = errors.New("engine: shutdown deadline exceeded: shard worker stuck")
	// ErrRedeployTimeout reports that Session.Redeploy hit the shutdown
	// deadline before every live shard adopted the new deployment.
	ErrRedeployTimeout = errors.New("engine: redeploy adoption deadline exceeded")
)

// ShardPanicError is the recorded cause when a shard worker panics: the
// shard is quarantined (replica frozen, input ring drained to a drop
// counter) and the rest of the session keeps running. Retrieve it with
// errors.As from Session.Err or from a wrapped Feed error.
type ShardPanicError struct {
	Shard int    // the quarantined shard
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
	// Postmortem is the shard's flight-recorder snapshot taken inside the
	// panic fence: the last ~Config.FlightRecorder events (burst
	// boundaries, expiry reclaims, eviction batches, epoch adoptions,
	// watchdog flags) preceding the fault, ending with the quarantine
	// event itself. Empty when the recorder is disabled.
	Postmortem []flight.Event
}

// Error implements error.
func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("engine: shard %d worker panicked: %v", e.Shard, e.Value)
}

// HealthState is one shard's lifecycle state in a Health snapshot.
type HealthState int32

// The shard health states.
const (
	// ShardRunning: the worker is live and keeping up with its input ring.
	ShardRunning HealthState = iota
	// ShardDegraded: the watchdog observed a full interval with input queued
	// but no burst completed — the worker is stalled or badly behind. The
	// state flips back to running as soon as progress resumes.
	ShardDegraded
	// ShardQuarantined: the worker panicked. Its replica is frozen exactly
	// as the panic left it, and its input ring drains to a drop counter so
	// feeders never wedge against the dead shard. Terminal for the session.
	ShardQuarantined
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case ShardRunning:
		return "running"
	case ShardDegraded:
		return "degraded"
	case ShardQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(h))
	}
}

// ShardHealth is one shard's entry in a Health snapshot.
type ShardHealth struct {
	// State is the shard's current lifecycle state.
	State HealthState
	// LastProgress is the shard's packet-time clock at its last completed
	// burst. A quarantined or stalled shard's stamp freezes while the other
	// shards' stamps keep advancing with traffic.
	LastProgress time.Duration
	// Backlog is the number of bursts queued in the shard's input ring and
	// not yet consumed.
	Backlog int
	// Dropped counts packets this shard discarded while quarantined (ring
	// drains plus the remainder of the burst the panic interrupted).
	Dropped int64
	// Epoch is the deployment epoch the shard currently runs: 0 for the
	// deployment the engine was built with, the Redeploy-returned epoch
	// after an adopted swap.
	Epoch uint64
}

// Health is a point-in-time view of a session's per-shard liveness, read
// entirely from published atomics — safe at any time, from any goroutine,
// including mid-run under -race.
type Health struct {
	// Err is the session's recorded cause (Session.Err): nil while healthy,
	// the first fault otherwise.
	Err error
	// Shards holds per-shard health, indexed by shard.
	Shards []ShardHealth
}

// Health assembles a live health snapshot of the session.
func (s *Session) Health() Health {
	h := Health{Err: s.Err(), Shards: make([]ShardHealth, len(s.e.shards))}
	for i, sh := range s.e.shards {
		h.Shards[i] = ShardHealth{
			State:        HealthState(sh.health.Load()),
			LastProgress: time.Duration(sh.lastTS.Load()),
			Backlog:      sh.in.backlog(),
			Dropped:      sh.quarDrops.Load(),
			Epoch:        sh.epoch.Load(),
		}
	}
	return h
}

// Err returns the session's first recorded fault: a ShardPanicError after a
// worker panic, the context's error after a cancellation, ErrShutdownTimeout
// after a wedged shutdown — or nil while the session is healthy. Feed-family
// methods wrap this cause into their closed-session error, and Close returns
// it as the session's final error.
func (s *Session) Err() error {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.fault
}

// recordFault records the session's cause error. The first fault wins:
// secondary faults (a timeout while shutting down after a panic, say) are
// symptoms of the first and would only obscure it.
func (s *Session) recordFault(err error) {
	if err == nil {
		return
	}
	s.faultMu.Lock()
	if s.fault == nil {
		s.fault = err
	}
	s.faultMu.Unlock()
}

// watchdog samples worker progress on a wall-clock interval and flips shards
// between running and degraded: a shard that completed no burst across a
// full interval while input sat queued is stalled (or badly behind); one
// that resumes completing bursts recovers. Quarantined shards are terminal
// and never touched — the CAS transitions only ever exchange running and
// degraded. Runs until shutdown closes watchStop.
func (s *Session) watchdog(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	last := make([]uint64, len(s.e.shards))
	for i, sh := range s.e.shards {
		last[i] = sh.progress.Load()
	}
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
			for i, sh := range s.e.shards {
				p := sh.progress.Load()
				switch {
				case p != last[i]:
					if sh.health.CompareAndSwap(int32(ShardDegraded), int32(ShardRunning)) && sh.rec != nil {
						sh.rec.Record(flight.KindWatchdog, time.Duration(sh.lastTS.Load()), 0, 0)
					}
				case sh.in.backlog() > 0:
					if sh.health.CompareAndSwap(int32(ShardRunning), int32(ShardDegraded)) && sh.rec != nil {
						sh.rec.Record(flight.KindWatchdog, time.Duration(sh.lastTS.Load()), 1, 0)
					}
				}
				last[i] = p
			}
		}
	}
}
