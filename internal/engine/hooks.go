package engine

import (
	"splidt/internal/dataplane"
	"splidt/internal/pkt"
)

// TestHooks are the engine's deterministic fault-injection seams: callbacks
// the session invokes at the three points where a fault plan can perturb a
// run (internal/faultinject builds seeded plans against them). Every field
// is optional, and a session started without WithTestHooks carries a nil
// hook set — the production paths pay one predictable nil-check branch and
// nothing else.
type TestHooks struct {
	// BeforePacket runs on the shard worker immediately before each packet
	// enters the replica. It may panic (worker-panic containment), sleep
	// (shard stall), or mutate the packet in place (clock jump). The packet
	// pointer is the burst's own slot — mutations are seen by the pipeline.
	BeforePacket func(shard int, p *pkt.Packet)
	// SinkDigest runs on the emitting shard worker for each digest at the
	// end of its burst, before the burst's digests are appended to the
	// session's log and outside the log's lock (digest-sink stall: the
	// stall holds up that worker, and with it that shard's ring).
	SinkDigest func(d *dataplane.Digest)
	// PushRefuse runs on the feeder before each attempt to push a burst into
	// shard's input ring; returning true makes the attempt behave as if the
	// ring were full (synthetic overflow → backpressure). Shutdown flushes
	// bypass it so an overflow plan cannot wedge a close.
	PushRefuse func(shard int) bool
}

// WithTestHooks installs fault-injection hooks for the session. Test-only:
// hooks run inline on the hot path and exist to make containment behavior
// reproducible, not to extend the engine.
func WithTestHooks(h *TestHooks) SessionOption {
	return func(s *Session) { s.hooks = h }
}
