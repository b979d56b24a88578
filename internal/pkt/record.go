package pkt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Record codec: a pcap-style container for wire-format frames, the
// recorded-trace input of the load harness. The file is a fixed header
// followed by length-prefixed records; each record is a capture timestamp
// plus one frame in the Marshal/MarshalControl wire layout. Like pcap, the
// timestamp is capture metadata, not frame bytes.
//
// The decoder is streaming and zero-copy in the sense that matters for an
// open-loop generator: one reusable frame buffer, one bufio read layer, no
// per-record allocation — frames are parsed in place and only the fixed-size
// Packet value leaves the reader, so ingest throughput is bounded by the
// parse, not the allocator.

// Record file layout constants.
const (
	// recordMagic opens every record file ("SPLT" big-endian).
	recordMagic uint32 = 0x53504C54
	// recordVersion is the current file-format version.
	recordVersion uint16 = 1
	// RecordFileHeaderBytes is the length of the file header:
	// magic(4) version(2) reserved(2).
	RecordFileHeaderBytes = 8
	// recordHdrBytes is the per-record header: ts-nanos(8) dispatch-hash(8)
	// frame-len(4). The dispatch hash is capture metadata for other tools;
	// RecordReader does not trust it (see Next) and recomputes it from the
	// frame's key.
	recordHdrBytes = 20
	// MaxFrameBytes bounds a record's frame length — far above any frame
	// the codec writes, and low enough that a corrupt (or adversarial)
	// length field cannot force a huge buffer.
	MaxFrameBytes = 1 << 16
)

// Record-stream errors.
var (
	// ErrBadMagic reports a stream that does not open with the record file
	// header.
	ErrBadMagic = errors.New("pkt: not a record stream (bad magic)")
	// ErrFrameTooLarge reports a record whose declared frame length exceeds
	// MaxFrameBytes.
	ErrFrameTooLarge = errors.New("pkt: record frame exceeds MaxFrameBytes")
)

// RecordWriter streams packets into a record file. Construct with
// NewRecordWriter; call Flush before closing the underlying writer. The
// steady-state WritePacket path reuses one frame buffer and allocates
// nothing.
type RecordWriter struct {
	w     *bufio.Writer
	frame []byte
	hdr   [recordHdrBytes]byte
	n     int64
}

// NewRecordWriter writes the file header and returns a writer positioned at
// the first record.
func NewRecordWriter(w io.Writer) (*RecordWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var h [RecordFileHeaderBytes]byte
	binary.BigEndian.PutUint32(h[0:4], recordMagic)
	binary.BigEndian.PutUint16(h[4:6], recordVersion)
	if _, err := bw.Write(h[:]); err != nil {
		return nil, err
	}
	return &RecordWriter{w: bw, frame: make([]byte, 0, HeaderWireBytes)}, nil
}

// WritePacket appends one data packet as a record. The packet's TS becomes
// the record's capture timestamp, and its dispatch hash (computed here if
// the source didn't stamp one) is recorded alongside as capture metadata.
func (rw *RecordWriter) WritePacket(p Packet) error {
	rw.frame = Marshal(p, rw.frame)
	h := p.ShardHash
	if h == 0 {
		h = p.Key.ShardHash()
	}
	return rw.writeRecord(p.TS, h, rw.frame)
}

// WriteControl appends one control packet as a record at the given capture
// timestamp. The harness's decoder skips control frames (they are
// pipeline-internal), so interleaving them exercises the reject path the
// way a switch-port capture would.
func (rw *RecordWriter) WriteControl(c Control, ts time.Duration) error {
	rw.frame = MarshalControl(c, rw.frame)
	return rw.writeRecord(ts, 0, rw.frame)
}

func (rw *RecordWriter) writeRecord(ts time.Duration, hash uint64, frame []byte) error {
	binary.BigEndian.PutUint64(rw.hdr[0:8], uint64(ts))
	binary.BigEndian.PutUint64(rw.hdr[8:16], hash)
	binary.BigEndian.PutUint32(rw.hdr[16:20], uint32(len(frame)))
	if _, err := rw.w.Write(rw.hdr[:]); err != nil {
		return err
	}
	if _, err := rw.w.Write(frame); err != nil {
		return err
	}
	rw.n++
	return nil
}

// Records returns the number of records written.
func (rw *RecordWriter) Records() int64 { return rw.n }

// Flush forces buffered records to the underlying writer.
func (rw *RecordWriter) Flush() error { return rw.w.Flush() }

// RecordReader streams packets out of a record file. Construct with
// NewRecordReader. Next yields data packets only, silently skipping
// control and foreign frames (counted by Skipped); every yielded packet
// carries its record's capture timestamp and its key's dispatch hash, so it
// is ready for the engine's feed path with no further per-packet work. The
// read path reuses one frame buffer and allocates nothing per record.
type RecordReader struct {
	r       *bufio.Reader
	frame   []byte
	hdr     [recordHdrBytes]byte
	pkts    int64
	skipped int64
}

// NewRecordReader validates the file header and returns a reader positioned
// at the first record.
func NewRecordReader(r io.Reader) (*RecordReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var h [RecordFileHeaderBytes]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrBadMagic
		}
		return nil, err
	}
	if binary.BigEndian.Uint32(h[0:4]) != recordMagic {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(h[4:6]); v != recordVersion {
		return nil, fmt.Errorf("pkt: record stream version %d, want %d", v, recordVersion)
	}
	return &RecordReader{r: br, frame: make([]byte, HeaderWireBytes)}, nil
}

// Next returns the next data packet in the stream. It skips records whose
// frame is not a data packet (control frames, foreign EtherTypes) without
// allocating, returns io.EOF at a clean end of stream, and
// io.ErrUnexpectedEOF when the stream ends mid-record.
//
// The fast path parses each record in place in the bufio buffer
// (Peek/Discard, no copy); only a record too large for the buffer falls
// back to copying through the reusable frame buffer.
//
//splidt:hotpath
func (rr *RecordReader) Next() (Packet, error) {
	for {
		var ts time.Duration
		var frame []byte
		// Whole record (header + frame) visible in the buffer: parse in
		// place. Peek refills across the boundary as needed and only fails
		// outright when the record exceeds the buffer size.
		if buf, err := rr.r.Peek(recordHdrBytes); err == nil {
			n := binary.BigEndian.Uint32(buf[16:20])
			if n > MaxFrameBytes {
				return Packet{}, ErrFrameTooLarge
			}
			rec := recordHdrBytes + int(n)
			if buf, err = rr.r.Peek(rec); err == nil {
				ts = time.Duration(binary.BigEndian.Uint64(buf[0:8]))
				frame = buf[recordHdrBytes:rec]
				p, err := Unmarshal(frame, ts)
				rr.r.Discard(rec)
				if err != nil {
					if errors.Is(err, ErrNotData) {
						rr.skipped++
						continue
					}
					return Packet{}, err
				}
				// The dispatch hash also indexes the flow table
				// (Packet.ShardHash), so a stream — outside input — cannot
				// supply it: the recorded value is ignored and the key's own
				// hash stamped, parity with the in-memory generators.
				p.ShardHash = p.Key.ShardHash()
				rr.pkts++
				return p, nil
			} else if err == io.ErrUnexpectedEOF || err == io.EOF {
				return Packet{}, io.ErrUnexpectedEOF
			}
			// bufio.ErrBufferFull: record straddles more than one buffer;
			// fall through to the copying path.
		} else if err != bufio.ErrBufferFull {
			if err == io.ErrUnexpectedEOF {
				return Packet{}, io.ErrUnexpectedEOF
			}
			if err == io.EOF {
				if _, err2 := rr.r.Peek(1); err2 == io.EOF {
					return Packet{}, io.EOF // clean end of stream
				}
				return Packet{}, io.ErrUnexpectedEOF
			}
			return Packet{}, err
		}

		if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Packet{}, io.ErrUnexpectedEOF
			}
			return Packet{}, err // io.EOF: clean end of stream
		}
		ts = time.Duration(binary.BigEndian.Uint64(rr.hdr[0:8]))
		n := binary.BigEndian.Uint32(rr.hdr[16:20])
		if n > MaxFrameBytes {
			return Packet{}, ErrFrameTooLarge
		}
		if int(n) > cap(rr.frame) {
			//splidt:allow alloc — slow path only: record straddles the 64KiB bufio buffer; the buffer is reused after
			rr.frame = make([]byte, n)
		}
		rr.frame = rr.frame[:n]
		if _, err := io.ReadFull(rr.r, rr.frame); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Packet{}, err
		}
		p, err := Unmarshal(rr.frame, ts)
		if err != nil {
			if errors.Is(err, ErrNotData) {
				rr.skipped++
				continue
			}
			return Packet{}, err
		}
		p.ShardHash = p.Key.ShardHash()
		rr.pkts++
		return p, nil
	}
}

// Packets returns the number of data packets yielded so far.
func (rr *RecordReader) Packets() int64 { return rr.pkts }

// Skipped returns the number of non-data records skipped so far.
func (rr *RecordReader) Skipped() int64 { return rr.skipped }
