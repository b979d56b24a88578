package engine

// This file is deliberately outside the //splidt:packettime regime:
// Redeploy's adoption wait is management-plane code bounded by wall-clock
// deadline. The per-shard adoption itself (shardState.adopt/pendingDeploy)
// lives in engine.go under the packet-time rules.

import (
	"errors"
	"fmt"
	"time"

	"splidt/internal/core"
	"splidt/internal/rangemark"
)

// deployment is one compiled tree queued for per-shard adoption: the unit
// Session.Redeploy publishes and each shard worker swaps in at a burst
// boundary. Immutable once published.
type deployment struct {
	model    *core.Model
	compiled *rangemark.Compiled
	epoch    uint64
}

// Redeploy swaps a freshly compiled tree into the running session without
// stopping traffic — the hitless upgrade path. It validates the pair against
// the deployed geometry (same feasibility check construction runs), freezes
// the compiled tables, assigns the next deployment epoch, and publishes the
// deployment to every shard; each worker adopts it at its next burst
// boundary (or promptly while idle), so no packet ever observes a
// half-swapped tree and per-shard digest streams switch epochs atomically at
// a burst edge.
//
// Flow state carries across the swap: live entries keep their SIDs, packet
// counts, window registers, touch stamps, and armed timers; entries whose
// SID the new tree does not define restart at the root; per-flow lifetimes
// re-adopt the new tree's trained per-leaf budgets at each flow's next
// window boundary (see dataplane.Pipeline.Redeploy). Digests emitted after a
// shard's adoption carry the new epoch.
//
// Redeploy returns the new deployment epoch once every live shard has
// adopted it. Quarantined shards are skipped — their replicas are frozen.
// If adoption does not complete within the engine's ShutdownTimeout (a
// stalled worker), it returns ErrRedeployTimeout with the epoch still
// pending: shards that did adopt keep the new tree, and the stragglers
// adopt if they ever resume. Concurrent Redeploy calls serialise; epochs
// are strictly increasing in call-completion order.
func (s *Session) Redeploy(m *core.Model, c *rangemark.Compiled) (uint64, error) {
	if m == nil || c == nil {
		return 0, errors.New("engine: Redeploy requires a model and its compiled tables")
	}
	s.redeployMu.Lock()
	defer s.redeployMu.Unlock()
	s.lifeMu.Lock()
	closed := s.closed
	s.lifeMu.Unlock()
	if closed {
		return 0, s.closedErr()
	}
	// Shard 0 holds the largest slice of the slot budget (dataplane.NewShards),
	// so feasibility against its replica is the binding check.
	if err := s.e.shards[0].pl.CheckRedeploy(m, c); err != nil {
		return 0, fmt.Errorf("engine: redeploy rejected: %w", err)
	}
	c.Freeze()
	dep := &deployment{model: m, compiled: c, epoch: s.e.deployEpoch.Add(1)}
	for _, sh := range s.e.shards {
		sh.pendingDep.Store(dep)
		sh.in.wakeConsumer()
	}
	deadline := time.Now().Add(s.e.cfg.ShutdownTimeout)
	for {
		adopted := true
		for _, sh := range s.e.shards {
			if HealthState(sh.health.Load()) == ShardQuarantined {
				continue
			}
			if sh.epoch.Load() < dep.epoch {
				adopted = false
				break
			}
		}
		if adopted {
			return dep.epoch, nil
		}
		s.lifeMu.Lock()
		closed = s.closed
		s.lifeMu.Unlock()
		if closed {
			// Shutdown raced the handoff; workers may have exited without
			// adopting. The next session adopts the pending deployment at
			// Start, so the swap still lands — just not hitlessly.
			return dep.epoch, s.closedErr()
		}
		if time.Now().After(deadline) {
			return dep.epoch, fmt.Errorf("engine: epoch %d: %w", dep.epoch, ErrRedeployTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
