// Package pkt models the packets that traverse the SpliDT data plane.
//
// A Packet carries exactly the header fields the SpliDT parser extracts into
// the PHV: the 5-tuple, length, TCP flags, a timestamp, and — following
// modern datacenter transports such as Homa and NDP — the total flow size
// embedded in the header, which the data plane uses to derive window
// boundaries without buffering.
package pkt

import (
	"fmt"
	"math"
	"time"

	"splidt/internal/flow"
)

// TCPFlags is the 8-bit TCP flag field.
type TCPFlags uint8

// Individual TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether all flags in mask are set.
//
//splidt:hotpath
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders set flags in the conventional order (e.g. "SYN|ACK").
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagACK, "ACK"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Packet is a parsed packet as seen by the pipeline's PHV. Fields mirror
// what a P4 parser would extract; nothing here requires the original bytes.
type Packet struct {
	Key   flow.Key      // 5-tuple
	Len   int           // wire length in bytes (headers + payload)
	Flags TCPFlags      // TCP flags; zero for non-TCP
	TS    time.Duration // arrival time relative to trace start

	// FlowSize is the sender-declared total number of packets in the flow,
	// carried in the transport header (Homa/NDP-style). SpliDT divides it by
	// the partition count to obtain uniform window boundaries.
	FlowSize int

	// Seq is the 1-based position of this packet within its flow.
	Seq int

	// Recirculated marks in-band control packets generated by the pipeline
	// itself (subtree-transition resubmissions), not offered load.
	Recirculated bool

	// ShardHash is the flow's precomputed dispatch hash
	// (flow.Key.ShardHash), carried on every packet so the engine's serial
	// dispatch stage does no hashing. It is direction-symmetric: both
	// directions of a conversation carry the same value. It must be 0 or
	// exactly Key.ShardHash(). Zero means unset: Shard and the pipeline
	// fall back to hashing Key, so hand-built packets stay valid.
	//
	// It also indexes the flow table: the dispatch hash is flow.Mix64 of
	// the canonical key's CRC32, so the pipeline un-mixes it
	// (flow.Unmix64) into the table's register hash instead of rehashing
	// the key per packet. A stale or foreign value would send the packet
	// to the wrong register slot or cuckoo bucket.
	ShardHash uint64
}

// String summarises the packet for debugging.
func (p Packet) String() string {
	return fmt.Sprintf("%v len=%d flags=%v ts=%v seq=%d/%d",
		p.Key, p.Len, p.Flags, p.TS, p.Seq, p.FlowSize)
}

// Shard maps the packet onto one of n shards using the precomputed
// ShardHash when present, falling back to flow.Key.Shard otherwise. Both
// paths agree: Shard(n) == Key.Shard(n) for every packet. n must be
// positive.
func (p Packet) Shard(n int) int {
	if n <= 0 {
		panic("pkt: non-positive shard count")
	}
	h := p.ShardHash
	if h == 0 {
		h = p.Key.ShardHash()
	}
	return int(h % uint64(n))
}

// WindowOf returns the 0-based window index this packet falls into when its
// flow is divided into parts uniform windows. Packets beyond the declared
// flow size (e.g. retransmissions) land in the final window.
//
//splidt:hotpath
func (p Packet) WindowOf(parts int) int {
	if parts <= 0 {
		panic("pkt: non-positive partition count")
	}
	if p.FlowSize <= 0 || p.Seq <= 0 {
		return 0
	}
	w := (p.Seq - 1) * parts / p.FlowSize
	if w >= parts {
		w = parts - 1
	}
	return w
}

// IsWindowEnd reports whether this packet is the last packet of its window
// when the flow is divided into parts uniform windows. The data plane uses
// this to trigger subtree prediction and recirculation.
//
//splidt:hotpath
func (p Packet) IsWindowEnd(parts int) bool {
	if parts <= 0 {
		panic("pkt: non-positive partition count")
	}
	if p.FlowSize <= 0 || p.Seq <= 0 {
		return false
	}
	if p.Seq >= p.FlowSize {
		return true
	}
	return p.WindowOf(parts) != Packet{Key: p.Key, FlowSize: p.FlowSize, Seq: p.Seq + 1}.WindowOf(parts)
}

// Bounds describes non-uniform window boundaries as cumulative flow
// fractions: Bounds[i] is the fraction of the flow covered by windows
// 0..i. It must be strictly increasing within (0, 1] and end at 1 — the
// adaptive window sizing the paper lists as future work (§6). Uniform
// windows are the special case Bounds[i] = (i+1)/n.
type Bounds []float64

// Valid reports whether the bounds are well-formed.
//
//splidt:hotpath
func (b Bounds) Valid() bool {
	if len(b) == 0 {
		return false
	}
	prev := 0.0
	for _, x := range b {
		if x <= prev || x > 1 {
			return false
		}
		prev = x
	}
	return b[len(b)-1] == 1
}

// Uniform returns the uniform bounds for n windows.
func Uniform(n int) Bounds {
	if n <= 0 {
		panic("pkt: non-positive window count")
	}
	b := make(Bounds, n)
	for i := range b {
		b[i] = float64(i+1) / float64(n)
	}
	b[n-1] = 1
	return b
}

// boundary returns the last sequence number of window i for a flow of the
// given size: ceil(bound × size), clamped so the final window ends at size.
//
//splidt:hotpath
func (b Bounds) boundary(i, size int) int {
	if i == len(b)-1 {
		return size
	}
	v := int(math.Ceil(b[i] * float64(size)))
	if v < 1 {
		v = 1
	}
	if v > size {
		v = size
	}
	return v
}

// WindowOfBounds is WindowOf under non-uniform boundaries.
//
//splidt:hotpath
func (p Packet) WindowOfBounds(b Bounds) int {
	if !b.Valid() {
		panic("pkt: invalid window bounds")
	}
	if p.FlowSize <= 0 || p.Seq <= 0 {
		return 0
	}
	for i := range b {
		if p.Seq <= b.boundary(i, p.FlowSize) {
			return i
		}
	}
	return len(b) - 1
}

// IsWindowEndBounds is IsWindowEnd under non-uniform boundaries.
//
//splidt:hotpath
func (p Packet) IsWindowEndBounds(b Bounds) bool {
	if !b.Valid() {
		panic("pkt: invalid window bounds")
	}
	if p.FlowSize <= 0 || p.Seq <= 0 {
		return false
	}
	if p.Seq >= p.FlowSize {
		return true
	}
	return p.Seq == b.boundary(p.WindowOfBounds(b), p.FlowSize)
}

// HeaderBytes is the approximate header overhead per packet used when
// converting packet counts to bandwidth (Ethernet+IP+TCP, no options).
const HeaderBytes = 54

// ControlPacketBytes is the wire size of a SpliDT recirculated control
// packet: headers plus the SID metadata. Used for recirculation-bandwidth
// accounting.
const ControlPacketBytes = 64
