package pkt

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"splidt/internal/flow"
)

func recKey(i int) flow.Key {
	return flow.Key{
		SrcIP: flow.AddrFrom4(10, 1, byte(i>>8), byte(i)), DstIP: flow.AddrFrom4(172, 16, 0, 1),
		SrcPort: uint16(1024 + i), DstPort: 443, Proto: flow.ProtoTCP,
	}
}

func recPacket(i int) Packet {
	return Packet{
		Key: recKey(i), Len: 100 + i%1400, Flags: FlagACK,
		TS: time.Duration(i) * time.Millisecond, FlowSize: 40, Seq: 1 + i%40,
	}
}

// TestRecordRoundTrip pins the codec contract: what WritePacket records,
// Next yields back — same fields, same order, same timestamps — with
// control frames interleaved and skipped.
func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewRecordWriter(&buf)
	if err != nil {
		t.Fatalf("NewRecordWriter: %v", err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := w.WritePacket(recPacket(i)); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
		if i%7 == 0 {
			if err := w.WriteControl(Control{NextSID: uint16(i), FlowIndex: uint32(i)},
				time.Duration(i)*time.Millisecond); err != nil {
				t.Fatalf("WriteControl: %v", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	r, err := NewRecordReader(&buf)
	if err != nil {
		t.Fatalf("NewRecordReader: %v", err)
	}
	for i := 0; i < n; i++ {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		want := recPacket(i)
		want.ShardHash = want.Key.ShardHash()
		if p != want {
			t.Fatalf("record %d: got %+v want %+v", i, p, want)
		}
		if uint32(flow.Unmix64(p.ShardHash)) != p.Key.Canonical().Hash() {
			t.Fatalf("record %d: dispatch hash does not un-mix to the register hash", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
	if r.Packets() != n {
		t.Fatalf("Packets() = %d, want %d", r.Packets(), n)
	}
	if want := int64((n + 6) / 7); r.Skipped() != want {
		t.Fatalf("Skipped() = %d, want %d", r.Skipped(), want)
	}
}

func TestRecordReaderErrors(t *testing.T) {
	// Bad magic.
	if _, err := NewRecordReader(bytes.NewReader([]byte("not a record file"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	// Empty stream.
	if _, err := NewRecordReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty stream: got %v", err)
	}

	// Truncated mid-record.
	var buf bytes.Buffer
	w, _ := NewRecordWriter(&buf)
	_ = w.WritePacket(recPacket(1))
	_ = w.Flush()
	trunc := buf.Bytes()[:buf.Len()-5]
	r, err := NewRecordReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatalf("NewRecordReader: %v", err)
	}
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated record: got %v, want io.ErrUnexpectedEOF", err)
	}

	// Oversized frame length field.
	var big bytes.Buffer
	w2, _ := NewRecordWriter(&big)
	_ = w2.Flush()
	hdr := make([]byte, recordHdrBytes)
	hdr[16] = 0xFF
	hdr[17] = 0xFF
	hdr[18] = 0xFF
	hdr[19] = 0xFF
	big.Write(hdr)
	r2, _ := NewRecordReader(bytes.NewReader(big.Bytes()))
	if _, err := r2.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

// TestErrNotDataSentinel pins the sentinel contract: control frames and
// foreign EtherTypes both report ErrNotData through errors.Is, and the
// control-frame reject — the one a recorded stream hits at rate — does not
// allocate.
func TestErrNotDataSentinel(t *testing.T) {
	ctrl := MarshalControl(Control{NextSID: 3, FlowIndex: 9}, nil)
	if _, err := Unmarshal(ctrl, 0); !errors.Is(err, ErrNotData) {
		t.Fatalf("control frame: got %v, want ErrNotData", err)
	}
	foreign := Marshal(recPacket(0), nil)
	foreign[12], foreign[13] = 0x86, 0xDD // IPv6 EtherType
	_, err := Unmarshal(foreign, 0)
	if !errors.Is(err, ErrNotData) {
		t.Fatalf("foreign EtherType: got %v, want ErrNotData", err)
	}
	var nd notDataError
	if !errors.As(err, &nd) || nd.EtherType() != 0x86DD {
		t.Fatalf("EtherType not carried: %v", err)
	}
	// Short frame stays a distinct error.
	if _, err := Unmarshal(make([]byte, 10), 0); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short frame: got %v, want ErrTruncated", err)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(ctrl, 0); !errors.Is(err, ErrNotData) {
			t.Fatal("reject path broke")
		}
	})
	if allocs != 0 {
		t.Fatalf("control reject path allocates %v per op, want 0", allocs)
	}
}

// TestRecordWriterAllocationFree pins the encoder's steady-state contract.
func TestRecordWriterAllocationFree(t *testing.T) {
	w, err := NewRecordWriter(io.Discard)
	if err != nil {
		t.Fatalf("NewRecordWriter: %v", err)
	}
	p := recPacket(3)
	_ = w.WritePacket(p) // warm the frame buffer
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.WritePacket(p); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WritePacket allocates %v per op, want 0", allocs)
	}
}
