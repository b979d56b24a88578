package flow

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func k(a, b Addr, sp, dp uint16, p Proto) Key {
	return Key{SrcIP: a, DstIP: b, SrcPort: sp, DstPort: dp, Proto: p}
}

func TestAddrFrom4(t *testing.T) {
	a := AddrFrom4(10, 0, 0, 1)
	if got := a.String(); got != "10.0.0.1" {
		t.Fatalf("Addr.String() = %q, want 10.0.0.1", got)
	}
	if a != Addr(0x0A000001) {
		t.Fatalf("AddrFrom4 = %#x, want 0x0A000001", uint32(a))
	}
}

func TestProtoString(t *testing.T) {
	cases := []struct {
		p    Proto
		want string
	}{
		{ProtoTCP, "tcp"},
		{ProtoUDP, "udp"},
		{ProtoICMP, "icmp"},
		{Proto(99), "proto(99)"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Proto(%d).String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	key := k(AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	if key.Reverse().Reverse() != key {
		t.Fatal("Reverse is not an involution")
	}
	r := key.Reverse()
	if r.SrcIP != key.DstIP || r.DstPort != key.SrcPort {
		t.Fatalf("Reverse mixed fields: %v", r)
	}
}

func TestCanonicalSymmetric(t *testing.T) {
	key := k(AddrFrom4(192, 168, 1, 9), AddrFrom4(10, 0, 0, 2), 443, 51000, ProtoTCP)
	if key.Canonical() != key.Reverse().Canonical() {
		t.Fatal("Canonical differs across directions")
	}
	if !key.Canonical().IsCanonical() {
		t.Fatal("Canonical(key) not reported canonical")
	}
}

func TestCanonicalTieBreakOnPort(t *testing.T) {
	a := AddrFrom4(10, 0, 0, 1)
	key := k(a, a, 9000, 80, ProtoUDP)
	c := key.Canonical()
	if c.SrcPort != 80 {
		t.Fatalf("tie-break on equal IPs should order by port, got src port %d", c.SrcPort)
	}
}

func TestHashDeterministic(t *testing.T) {
	key := k(AddrFrom4(1, 2, 3, 4), AddrFrom4(5, 6, 7, 8), 10, 20, ProtoTCP)
	if key.Hash() != key.Hash() {
		t.Fatal("Hash not deterministic")
	}
	if key.Hash() == key.Reverse().Hash() {
		t.Fatal("directional Hash should (generically) differ across directions")
	}
}

func TestHashMatchesChecksumIEEE(t *testing.T) {
	// Hash's allocation-free table loop must compute exactly the CRC32
	// (IEEE) of the 13-byte wire tuple — the function Tofino exposes.
	f := func(a, b uint32, sp, dp uint16, pr uint8) bool {
		key := k(Addr(a), Addr(b), sp, dp, Proto(pr))
		var w [13]byte
		binary.BigEndian.PutUint32(w[0:4], a)
		binary.BigEndian.PutUint32(w[4:8], b)
		binary.BigEndian.PutUint16(w[8:10], sp)
		binary.BigEndian.PutUint16(w[10:12], dp)
		w[12] = pr
		return key.Hash() == crc32.ChecksumIEEE(w[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymHashSymmetric(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16) bool {
		key := k(Addr(a), Addr(b), sp, dp, ProtoTCP)
		return key.SymHash() == key.Reverse().SymHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16, pr uint8) bool {
		key := k(Addr(a), Addr(b), sp, dp, Proto(pr))
		c := key.Canonical()
		return c.Canonical() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexInRange(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16) bool {
		key := k(Addr(a), Addr(b), sp, dp, ProtoUDP)
		i := IndexOf(key.Hash(), 65536)
		return i >= 0 && i < 65536
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IndexOf(h, 0) did not panic")
		}
	}()
	IndexOf(k(1, 2, 3, 4, ProtoTCP).Hash(), 0)
}

func TestKeyString(t *testing.T) {
	key := k(AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	want := "tcp 10.0.0.1:1234>10.0.0.2:80"
	if got := key.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func BenchmarkKeyHash(b *testing.B) {
	key := k(AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = key.Hash()
	}
}

func TestShardSymmetric(t *testing.T) {
	key := k(AddrFrom4(10, 0, 0, 1), AddrFrom4(10, 0, 0, 2), 1234, 80, ProtoTCP)
	for _, n := range []int{1, 2, 3, 8, 13} {
		if got, rev := key.Shard(n), key.Reverse().Shard(n); got != rev {
			t.Fatalf("Shard(%d): forward %d != reverse %d", n, got, rev)
		}
		if s := key.Shard(n); s < 0 || s >= n {
			t.Fatalf("Shard(%d) = %d out of range", n, s)
		}
	}
}

func TestShardPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shard(0) did not panic")
		}
	}()
	k(1, 2, 3, 4, ProtoTCP).Shard(0)
}

// TestShardDecorrelatedFromIndex: when the slot count is a multiple of the
// shard count, a shard's flows must still spread over (nearly) all slot
// residues — the property the splitmix64 scramble exists for. A raw
// SymHash%n shard choice would pin each shard to exactly one residue class.
func TestShardDecorrelatedFromIndex(t *testing.T) {
	const shards, slots = 8, 1 << 12
	residues := make(map[int]map[int]bool)
	balance := make(map[int]int)
	for i := 0; i < 4000; i++ {
		key := k(
			AddrFrom4(10, byte(i>>8), byte(i), 1),
			AddrFrom4(172, 16, byte(i>>4), 2),
			uint16(1024+i), 443, ProtoTCP,
		)
		s := key.Shard(shards)
		balance[s]++
		if residues[s] == nil {
			residues[s] = make(map[int]bool)
		}
		residues[s][IndexOf(key.Canonical().Hash(), slots)%shards] = true
	}
	for s, res := range residues {
		if len(res) < shards/2 {
			t.Errorf("shard %d sees only %d of %d slot residues: correlated hashes", s, len(res), shards)
		}
	}
	for s := 0; s < shards; s++ {
		// Loose uniformity: each shard within 3x of the fair share.
		if balance[s] < 4000/shards/3 || balance[s] > 3*4000/shards {
			t.Errorf("shard %d holds %d of 4000 flows: badly unbalanced", s, balance[s])
		}
	}
}

func TestShardHashSymmetricAndConsistent(t *testing.T) {
	for i := 0; i < 200; i++ {
		key := k(
			AddrFrom4(10, byte(i), 3, 1), AddrFrom4(172, 16, byte(i>>2), 2),
			uint16(2000+i), 443, ProtoTCP,
		)
		if key.ShardHash() != key.Reverse().ShardHash() {
			t.Fatalf("ShardHash not direction-symmetric for %v", key)
		}
		for n := 1; n <= 8; n++ {
			if got, want := int(key.ShardHash()%uint64(n)), key.Shard(n); got != want {
				t.Fatalf("Shard(%d) = %d, but ShardHash reduction gives %d", n, want, got)
			}
		}
	}
}

// TestUnmix64InvertsMix64 pins the inverse finalizer over edge values and
// a seeded random sweep, in both composition orders.
func TestUnmix64InvertsMix64(t *testing.T) {
	edges := []uint64{
		0, 1, 2, 0xFF, 0xFFFFFFFF, 1 << 32, 1 << 63, 1<<63 - 1,
		^uint64(0), ^uint64(0) - 1, 0x94d049bb133111eb, 0xbf58476d1ce4e5b9,
	}
	for _, x := range edges {
		if got := Unmix64(Mix64(x)); got != x {
			t.Fatalf("Unmix64(Mix64(%#x)) = %#x", x, got)
		}
		if got := Mix64(Unmix64(x)); got != x {
			t.Fatalf("Mix64(Unmix64(%#x)) = %#x", x, got)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100000; i++ {
		x := rng.Uint64()
		if got := Unmix64(Mix64(x)); got != x {
			t.Fatalf("Unmix64(Mix64(%#x)) = %#x", x, got)
		}
	}
}

// TestUnmixedShardHashIsRegisterHash pins the identity the flow table's
// hash-once path relies on: the dispatch hash un-mixes to the canonical
// key's CRC32, with the high half zero.
func TestUnmixedShardHashIsRegisterHash(t *testing.T) {
	for i := 0; i < 2000; i++ {
		key := k(
			AddrFrom4(172, 16, byte(i>>8), byte(i)), AddrFrom4(10, 0, byte(i), 9),
			uint16(1024+i), 80, ProtoUDP,
		)
		h := Unmix64(key.ShardHash())
		if h>>32 != 0 || uint32(h) != key.Canonical().Hash() {
			t.Fatalf("%v: Unmix64(ShardHash) = %#x, want CRC32 %#x", key, h, key.Canonical().Hash())
		}
	}
}
