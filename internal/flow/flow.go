// Package flow defines flow identities for the data plane: 5-tuples,
// direction-normalised keys, and the CRC32-based register indexing used by
// SpliDT to locate per-flow state in switch register arrays.
//
// The design follows the gopacket Flow/Endpoint idiom: keys are fixed-size
// comparable values (usable as map keys, no allocation on construction) and
// carry a fast non-cryptographic hash for load balancing and register
// indexing.
package flow

import (
	"fmt"
	"hash/crc32"
	"math/bits"
)

// Proto is an IP protocol number.
type Proto uint8

// Protocol numbers used by the traffic generators and parsers.
const (
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
	ProtoICMP Proto = 1
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is an IPv4 address in host byte order. A fixed-width integer keeps
// Key comparable and hashable without allocation.
type Addr uint32

// AddrFrom4 builds an Addr from dotted-quad octets.
//
//splidt:hotpath
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Key is a 5-tuple flow identity. It is comparable, so it can serve directly
// as a map key; the zero Key is invalid (protocol 0).
type Key struct {
	SrcIP   Addr
	DstIP   Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String renders the key as "proto src:port>dst:port".
func (k Key) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.SrcIP, k.SrcPort, k.DstIP, k.DstPort)
}

// Reverse returns the key of the opposite direction.
//
//splidt:hotpath
func (k Key) Reverse() Key {
	return Key{
		SrcIP:   k.DstIP,
		DstIP:   k.SrcIP,
		SrcPort: k.DstPort,
		DstPort: k.SrcPort,
		Proto:   k.Proto,
	}
}

// Canonical returns a direction-normalised key: the (IP, port) pair that
// compares lower becomes the source. Both directions of a bidirectional
// conversation map to the same canonical key, mirroring how CICFlowMeter
// aggregates forward and backward packets into one flow record.
//
//splidt:hotpath
func (k Key) Canonical() Key {
	if k.SrcIP < k.DstIP || (k.SrcIP == k.DstIP && k.SrcPort <= k.DstPort) {
		return k
	}
	return k.Reverse()
}

// IsCanonical reports whether k equals its canonical form.
//
//splidt:hotpath
func (k Key) IsCanonical() bool { return k == k.Canonical() }

// ieeeSlice holds slicing-by-4 tables for Hash's CRC32 (IEEE):
// ieeeSlice[0] is the byte-at-a-time table, and ieeeSlice[n][i] is the CRC
// of byte i followed by n zero bytes.
var ieeeSlice = func() (t [4][256]uint32) {
	t[0] = *crc32.MakeTable(crc32.IEEE)
	for i := range t[0] {
		for n := 1; n < 4; n++ {
			c := t[n-1][i]
			t[n][i] = t[0][byte(c)] ^ c>>8
		}
	}
	return t
}()

// Hash returns the CRC32 (IEEE) of the 5-tuple, the same function Tofino
// exposes for register indexing. SpliDT hashes the 5-tuple on every packet
// to locate the flow's slot in each register array. The checksum is
// computed over the 13-byte wire tuple (src ip, dst ip, src port, dst port
// big-endian, then proto: what a P4 parser would feed the switch CRC unit)
// rather than with crc32.ChecksumIEEE: the library's arch-dispatched entry
// point makes the buffer escape to the heap, and this sits on the
// per-packet path of every pipeline. The tuple's three 4-byte words go
// through slicing-by-4 tables, four independent lookups per word instead of
// a serial chain of one per byte, and the protocol byte through the byte
// table (equality with ChecksumIEEE is pinned by tests).
//
//splidt:hotpath
func (k Key) Hash() uint32 {
	crc := ^uint32(0)
	for _, w := range [3]uint32{
		bits.ReverseBytes32(uint32(k.SrcIP)),
		bits.ReverseBytes32(uint32(k.DstIP)),
		uint32(bits.ReverseBytes16(k.SrcPort)) | uint32(bits.ReverseBytes16(k.DstPort))<<16,
	} {
		crc ^= w
		crc = ieeeSlice[3][byte(crc)] ^ ieeeSlice[2][byte(crc>>8)] ^
			ieeeSlice[1][byte(crc>>16)] ^ ieeeSlice[0][crc>>24]
	}
	crc = ieeeSlice[0][byte(crc)^byte(k.Proto)] ^ crc>>8
	return ^crc
}

// IndexOf maps a flow's register hash (Key.Hash) onto a register array of
// the given size — the one register-index rule, shared by the direct flow
// table. Size must be positive.
//
//splidt:hotpath
func IndexOf(h uint32, size int) int {
	if size <= 0 {
		panic("flow: non-positive register array size")
	}
	return int(h % uint32(size))
}

// SymHash returns a direction-symmetric hash: both directions of a
// conversation land in the same slot. Useful for bidirectional feature
// state (gopacket's Flow.FastHash has the same symmetry property).
//
//splidt:hotpath
func (k Key) SymHash() uint32 {
	c := k.Canonical()
	return c.Hash()
}

// Mix64 is the splitmix64 finalizer — a fast invertible scrambler that
// decorrelates the low bits of its output from those of its input. It is
// the scrambler behind ShardHash, exported so derived hash consumers (the
// cuckoo flow table's second bucket hash) share one implementation instead
// of drifting copies.
//
//splidt:hotpath
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Unmix64 inverts Mix64: Unmix64(Mix64(x)) == x for every x. Each step of
// the finalizer is a bijection — an xor-shift is undone by xoring in the
// shifted value's own shifts, a multiply by the odd constant's inverse mod
// 2^64 — so the inverse runs them backwards. It lets the flow table recover
// the register hash a packet source already computed: a stamped
// pkt.Packet.ShardHash is Mix64 of the canonical key's CRC32, so
// uint32(Unmix64(ShardHash)) is that CRC with no per-packet rehash.
//
//splidt:hotpath
func Unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3 // inverse of 0x94d049bb133111eb
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089 // inverse of 0xbf58476d1ce4e5b9
	x ^= x>>30 ^ x>>60
	return x
}

// ShardHash returns the direction-symmetric dispatch hash Shard reduces:
// the symmetric 5-tuple hash scrambled through a splitmix64 finalizer so
// that shard choice stays statistically independent of register-slot
// indexing (IndexOf uses the raw hash; taking both modulo related sizes would
// otherwise confine each shard's flows to a fraction of its slots). Packet
// sources precompute it once per flow and carry it on pkt.Packet so the
// engine's serial dispatch stage does no hashing at all.
//
//splidt:hotpath
func (k Key) ShardHash() uint64 {
	return Mix64(uint64(k.SymHash()))
}

// Shard maps the flow onto one of n shards (RSS-style dispatch for the
// multi-worker engine). It is direction-symmetric, so both directions of a
// conversation — and therefore all of a flow's register state — land on the
// same shard. n must be positive.
func (k Key) Shard(n int) int {
	if n <= 0 {
		panic("flow: non-positive shard count")
	}
	return int(k.ShardHash() % uint64(n))
}
