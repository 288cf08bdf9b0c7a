package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tifs/internal/isa"
)

// Binary miss-trace format: a short header ("TIFS", version, stream
// kind) followed by delta/varint-packed records. Block numbers and event
// indices are delta-encoded against the previous record (zigzag varint
// for blocks), which keeps traces compact: most deltas are small. The
// result store persists miss traces in this format, so the header bytes
// are frozen. Kind 1 stays unused: it named an event-stream format that
// must be rejected, never misread as misses.
const (
	magic         = "TIFS"
	formatVersion = 1

	kindMisses byte = 2
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func writeHeader(w *bufio.Writer, kind byte) error {
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	if err := w.WriteByte(formatVersion); err != nil {
		return err
	}
	return w.WriteByte(kind)
}

func readHeader(r *bufio.Reader, wantKind byte) error {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return fmt.Errorf("trace: bad magic %q", m)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return err
	}
	if ver != formatVersion {
		return fmt.Errorf("trace: unsupported version %d", ver)
	}
	kind, err := r.ReadByte()
	if err != nil {
		return err
	}
	if kind != wantKind {
		return fmt.Errorf("trace: stream kind %d, want %d", kind, wantKind)
	}
	return nil
}

func putUvarint(w *bufio.Writer, buf []byte, v uint64) error {
	n := binary.PutUvarint(buf, v)
	_, err := w.Write(buf[:n])
	return err
}

// MissWriter serializes MissRecords.
type MissWriter struct {
	w       *bufio.Writer
	buf     []byte
	prevBlk isa.Block
	prevSeq uint64
	count   uint64
}

// NewMissWriter starts a miss stream on w.
func NewMissWriter(w io.Writer) (*MissWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, kindMisses); err != nil {
		return nil, err
	}
	return &MissWriter{w: bw, buf: make([]byte, binary.MaxVarintLen64)}, nil
}

// Write appends one miss record.
func (mw *MissWriter) Write(m MissRecord) error {
	if err := putUvarint(mw.w, mw.buf, zigzag(int64(m.Block)-int64(mw.prevBlk))); err != nil {
		return err
	}
	mw.prevBlk = m.Block
	if err := putUvarint(mw.w, mw.buf, m.Seq-mw.prevSeq); err != nil {
		return err
	}
	mw.prevSeq = m.Seq
	if err := putUvarint(mw.w, mw.buf, uint64(m.Branches)); err != nil {
		return err
	}
	seq := byte(0)
	if m.Sequential {
		seq = 1
	}
	if err := mw.w.WriteByte(seq); err != nil {
		return err
	}
	mw.count++
	return nil
}

// Count returns the number of records written.
func (mw *MissWriter) Count() uint64 { return mw.count }

// Flush flushes buffered output.
func (mw *MissWriter) Flush() error { return mw.w.Flush() }

// MissReader deserializes a miss stream.
type MissReader struct {
	r       *bufio.Reader
	prevBlk isa.Block
	prevSeq uint64
	err     error
}

// NewMissReader opens a miss stream from r.
func NewMissReader(r io.Reader) (*MissReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if err := readHeader(br, kindMisses); err != nil {
		return nil, err
	}
	return &MissReader{r: br}, nil
}

// Next returns the next record; ok is false at end of stream or on error
// (see Err).
func (mr *MissReader) Next() (MissRecord, bool) {
	if mr.err != nil {
		return MissRecord{}, false
	}
	d, err := binary.ReadUvarint(mr.r)
	if err == io.EOF {
		return MissRecord{}, false
	}
	if err != nil {
		mr.err = err
		return MissRecord{}, false
	}
	var m MissRecord
	m.Block = isa.Block(int64(mr.prevBlk) + unzigzag(d))
	mr.prevBlk = m.Block

	ds, err := binary.ReadUvarint(mr.r)
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Seq = mr.prevSeq + ds
	mr.prevSeq = m.Seq

	br, err := binary.ReadUvarint(mr.r)
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Branches = int(br)

	sb, err := mr.r.ReadByte()
	if err != nil {
		mr.err = fmt.Errorf("trace: truncated miss: %w", err)
		return MissRecord{}, false
	}
	m.Sequential = sb != 0
	return m, true
}

// Err returns the first decode error, if any.
func (mr *MissReader) Err() error { return mr.err }

// ReadAllMisses drains a miss stream into a slice.
func ReadAllMisses(r io.Reader) ([]MissRecord, error) {
	mr, err := NewMissReader(r)
	if err != nil {
		return nil, err
	}
	var out []MissRecord
	for {
		m, ok := mr.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out, mr.Err()
}
