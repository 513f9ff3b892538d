package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic "MBTR" | version byte | name length (uvarint) | name bytes
//	then one record per instruction:
//	  flags byte: kind (3 bits) | mispredict (bit 3) | dependsOnPrev (bit 4)
//	  pc delta from previous pc (zigzag varint)
//	  addr delta from previous addr (zigzag varint; loads/stores only)
//
// Delta coding keeps streaming/striding traces small, the same trick the
// DPC trace formats use.

var traceMagic = [4]byte{'M', 'B', 'T', 'R'}

const traceVersion = 1

// Writer streams instructions to an io.Writer in the binary trace format.
type Writer struct {
	w        *bufio.Writer
	prevPC   uint64
	prevAddr uint64
	count    int64
	buf      []byte
}

// NewWriter creates a trace writer and emits the header.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(name)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing name length: %w", err)
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, fmt.Errorf("trace: writing name: %w", err)
	}
	return &Writer{w: bw, buf: make([]byte, 0, 2*binary.MaxVarintLen64+1)}, nil
}

// Write appends one instruction to the trace.
func (w *Writer) Write(i *Inst) error {
	flags := byte(i.Kind) & 0x7
	if i.Mispredict {
		flags |= 1 << 3
	}
	if i.DependsOnPrev {
		flags |= 1 << 4
	}
	w.buf = w.buf[:0]
	w.buf = append(w.buf, flags)
	w.buf = binary.AppendVarint(w.buf, int64(i.PC-w.prevPC))
	w.prevPC = i.PC
	if i.Kind == KindLoad || i.Kind == KindStore {
		w.buf = binary.AppendVarint(w.buf, int64(i.Addr-w.prevAddr))
		w.prevAddr = i.Addr
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of instructions written.
func (w *Writer) Count() int64 { return w.count }

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a binary trace.
type Reader struct {
	r        *bufio.Reader
	name     string
	prevPC   uint64
	prevAddr uint64
}

// NewReader validates the header and returns a reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	return &Reader{r: br, name: string(name)}, nil
}

// TraceName returns the name stored in the trace header.
func (r *Reader) TraceName() string { return r.name }

// Read decodes the next instruction. It returns io.EOF cleanly at the end
// of the trace.
func (r *Reader) Read(i *Inst) error {
	flags, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("trace: reading flags: %w", err)
	}
	kind := Kind(flags & 0x7)
	if kind >= numKinds {
		return fmt.Errorf("trace: invalid kind %d", kind)
	}
	pcDelta, err := binary.ReadVarint(r.r)
	if err != nil {
		return fmt.Errorf("trace: reading pc delta: %w", err)
	}
	*i = Inst{
		Kind:          kind,
		Mispredict:    flags&(1<<3) != 0,
		DependsOnPrev: flags&(1<<4) != 0,
	}
	r.prevPC += uint64(pcDelta)
	i.PC = r.prevPC
	if kind == KindLoad || kind == KindStore {
		addrDelta, err := binary.ReadVarint(r.r)
		if err != nil {
			return fmt.Errorf("trace: reading addr delta: %w", err)
		}
		r.prevAddr += uint64(addrDelta)
		i.Addr = r.prevAddr
	}
	return nil
}

// ReadAll decodes the remaining instructions. A record cut short is an
// error, not the end of the trace.
func (r *Reader) ReadAll() ([]Inst, error) {
	var out []Inst
	for {
		var i Inst
		// Read returns io.EOF itself only between records; a wrapped
		// io.EOF means the file ended inside one.
		switch err := r.Read(&i); {
		case err == nil:
			out = append(out, i)
		case err == io.EOF:
			return out, nil
		default:
			return out, err
		}
	}
}

// Loop replays a recorded instruction slice as an infinite Generator,
// mirroring the paper's methodology of concatenating short traces until
// the instruction budget is reached (§6.2).
type Loop struct {
	name  string
	insts []Inst
	pos   int
}

// NewLoop builds a looping generator over insts. It panics on an empty
// slice, which can never represent a program.
func NewLoop(name string, insts []Inst) *Loop {
	if len(insts) == 0 {
		panic("trace: NewLoop with empty trace")
	}
	return &Loop{name: name, insts: insts}
}

// Name implements Generator.
func (l *Loop) Name() string { return l.name }

// Next implements Generator.
func (l *Loop) Next(i *Inst) {
	*i = l.insts[l.pos]
	l.pos++
	if l.pos == len(l.insts) {
		l.pos = 0
	}
}
