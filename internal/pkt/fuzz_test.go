package pkt

import (
	"bytes"
	"testing"
	"time"
)

// FuzzUnmarshal feeds arbitrary bytes to the packet parser: it must never
// panic, and whatever parses must re-serialise to an equivalent packet.
func FuzzUnmarshal(f *testing.F) {
	f.Add(make([]byte, HeaderWireBytes))
	f.Add([]byte{})
	seed := Marshal(Packet{
		Key: wireKey(), Len: 1480, Flags: FlagSYN, FlowSize: 120, Seq: 7,
	}, nil)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data, 0)
		if err != nil {
			return
		}
		// Round trip: re-marshal and re-parse must agree.
		again, err := Unmarshal(Marshal(p, nil), 0)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again != p {
			t.Fatalf("round trip diverged: %+v vs %+v", again, p)
		}
	})
}

// FuzzRecordStream feeds arbitrary bytes to the zero-copy record decoder:
// it must never panic and never allocate unboundedly, and every packet it
// does yield must survive a Marshal round trip (what the decoder parses is
// exactly what the wire codec would re-serialise). Seeds include a valid
// recorded stream with interleaved control frames so the corpus starts on
// the happy path.
func FuzzRecordStream(f *testing.F) {
	var valid bytes.Buffer
	w, err := NewRecordWriter(&valid)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = w.WritePacket(Packet{
			Key: wireKey(), Len: 200 + i, Flags: FlagACK,
			TS: time.Duration(i) * time.Millisecond, FlowSize: 10, Seq: i + 1,
		})
		_ = w.WriteControl(Control{NextSID: uint16(i)}, time.Duration(i))
	}
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:RecordFileHeaderBytes])
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewRecordReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			p, err := r.Next()
			if err != nil {
				return
			}
			// Round trip: the decoded packet re-marshals to a frame that
			// parses back identically. An arbitrary stream may carry any
			// value in the recorded dispatch hash; the decoded packet must
			// carry its key's own hash regardless, since the flow table
			// indexes by it.
			again, err := Unmarshal(Marshal(p, nil), p.TS)
			if err != nil {
				t.Fatalf("re-parse of decoded packet failed: %v", err)
			}
			if p.ShardHash != p.Key.ShardHash() {
				t.Fatalf("decoded packet carries dispatch hash %#x, want the key's %#x",
					p.ShardHash, p.Key.ShardHash())
			}
			again.ShardHash = p.ShardHash
			if again != p {
				t.Fatalf("record round trip diverged: %+v vs %+v", again, p)
			}
		}
	})
}

// FuzzUnmarshalControl exercises the control-packet parser the same way.
func FuzzUnmarshalControl(f *testing.F) {
	f.Add(make([]byte, 20))
	f.Add(MarshalControl(Control{NextSID: 9, FlowIndex: 1234}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalControl(data)
		if err != nil {
			return
		}
		again, err := UnmarshalControl(MarshalControl(c, nil))
		if err != nil || again != c {
			t.Fatalf("control round trip diverged: %+v vs %+v (%v)", again, c, err)
		}
	})
}
