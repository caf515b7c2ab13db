package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary trace format, version 1:
//
//	magic "ASAPTRC1"
//	name  (uvarint length + bytes)
//	nthreads (uvarint)
//	per thread: nops (uvarint), then per op:
//	    1 byte: kind (low 7 bits) | persistent flag (bit 7)
//	    uvarint: addr (memory/lock ops) or N (compute)
//
// The format is deterministic and self-contained so experiments can be
// archived and replayed bit-identically (the artifact-appendix workflow of
// the paper, minus the 50 GB of disk images).

const traceMagic = "ASAPTRC1"

// maxPrealloc caps how many ops a thread's header count preallocates when
// the input size is unknown: the count comes from outside bytes, so a
// short input claiming 2^28 ops must not reserve gigabytes before its
// first op is read. Longer threads grow by append.
const maxPrealloc = 1 << 12

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUv := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUv(uint64(len(t.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	if err := putUv(uint64(len(t.Threads))); err != nil {
		return err
	}
	for _, ops := range t.Threads {
		if err := putUv(uint64(len(ops))); err != nil {
			return err
		}
		for _, op := range ops {
			kb := byte(op.Kind)
			if op.Persistent {
				kb |= 0x80
			}
			if err := bw.WriteByte(kb); err != nil {
				return err
			}
			arg := op.Addr
			if op.Kind == OpCompute {
				arg = uint64(op.N)
			}
			if err := putUv(arg); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	// Every op takes at least two bytes, so a reader that knows its
	// unread length (bytes.Reader, strings.Reader) bounds the ops any
	// thread can hold.
	limit := uint64(maxPrealloc)
	if lr, ok := r.(interface{ Len() int }); ok {
		limit = uint64(lr.Len()) / 2
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	nThreads, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: thread count: %w", err)
	}
	if nThreads > 1<<12 {
		return nil, fmt.Errorf("trace: unreasonable thread count %d", nThreads)
	}
	tr := &Trace{Name: string(nameBytes)}
	for t := uint64(0); t < nThreads; t++ {
		nOps, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op count (thread %d): %w", t, err)
		}
		if nOps > 1<<28 {
			return nil, fmt.Errorf("trace: unreasonable op count %d", nOps)
		}
		ops := make([]Op, 0, min(nOps, limit))
		for i := uint64(0); i < nOps; i++ {
			kb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("trace: op kind: %w", err)
			}
			arg, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: op arg: %w", err)
			}
			op := Op{Kind: Kind(kb & 0x7f), Persistent: kb&0x80 != 0}
			if op.Kind > OpStrand {
				return nil, fmt.Errorf("trace: unknown op kind %d", op.Kind)
			}
			if op.Kind == OpCompute {
				if arg > 1<<32-1 {
					return nil, fmt.Errorf("trace: compute duration %d overflows", arg)
				}
				op.N = uint32(arg)
			} else {
				op.Addr = arg
			}
			ops = append(ops, op)
		}
		tr.Threads = append(tr.Threads, ops)
	}
	return tr, nil
}
