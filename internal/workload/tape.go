package workload

import (
	"encoding/binary"
	"fmt"

	"ntcsim/internal/cache"
)

// A Tape is a recorded stretch of one generator's instruction stream:
// the instructions Next would produce from the generator's position at
// recording time, and the generator's state after them. Replaying a tape
// decodes each instruction from 2 to 8 bytes instead of drawing it
// again, and a replay that runs past the end takes over that end state
// and generates on, so a replay yields exactly the instructions the
// generator would have, whatever the tape's length.
//
// A tape is written only by Record and read by any number of replays at
// once (TurboSMARTS stores a sample unit once; this stores the unit's
// instruction stream once for every measurement taken from it).
type Tape struct {
	// buf holds the encoded instructions, size bytes, then tapePad bytes,
	// so that every instruction starts an 8-byte load inside buf. Its
	// capacity is fixed by the first Record and reused by the next ones.
	buf   []byte
	size  int
	n     int       // recorded instructions
	start cursor    // the generator's cursor when recording began
	end   Generator // the generator after the recorded instructions

	// User [0] and OS [1] regions: a data address is dataBase + offset; a
	// PC lies in [codeBase, codeEnd), codeLimit bytes long.
	dataBase, codeBase, codeEnd, codeLimit [2]uint64
}

// A TapeCursor is a replay's position in a tape: the next byte, and the
// user and OS program counters the instructions' PCs are rebuilt from.
type TapeCursor struct {
	pos int
	pc  [2]uint64 // user, OS
}

// Instruction encoding: a little-endian word of 2, 4, 6 or 8 bytes,
// the shortest that holds its payload. The payload of a load or store is
// its address's offset in its mode's data region; that of a branch is
// its site ID, plus, when taken, its target's offset in its mode's code
// region. ALU and FP instructions carry none, so most take 2 or 4 bytes.
const (
	sizeMask     = 1<<2 - 1 // size code s: the word is 2(s+1) bytes
	kindShift    = 2
	kindMask     = 1<<3 - 1
	osShift      = 5
	takenFlag    = 1 << 6
	depShift     = 7
	depMask      = 1<<7 - 1 // DepDist <= 64
	payloadShift = 14
	branchIDBits = 18
	branchIDMask = 1<<branchIDBits - 1
	tapePad      = 8 - 2
	// TapeMaxBytes bounds the bytes one recorded instruction takes.
	TapeMaxBytes = 8
)

// Per-size word masks, and per-kind payload masks, so decoding needs no
// branch on either.
var (
	sizeWord = [sizeMask + 1]uint64{1<<16 - 1, 1<<32 - 1, 1<<48 - 1, 1<<64 - 1}
	addrMask = [kindMask + 1]uint64{Load: 1<<64 - 1, Store: 1<<64 - 1}
	idMask   = [kindMask + 1]uint64{Branch: branchIDMask}
)

// tapeFits reports whether every instruction of pl's trace encodes in a
// word: user data offsets (below the data footprint, or the hot and
// stack tiers plus a line) in the payload, branch IDs in branchIDBits
// and code offsets in the rest. OS data offsets are below osDataBytes.
func tapeFits(pl *Plan) bool {
	const payloadBits = 64 - payloadShift
	p := pl.p
	dataTop := max(p.DataBytes, p.StackBytes+p.HotBytes+cache.LineBytes)
	return p.StaticBranches <= 1<<branchIDBits &&
		max(p.CodeBytes, osCodeBytes) <= 1<<(payloadBits-branchIDBits) &&
		dataTop <= 1<<payloadBits
}

// Record refills t with the next instructions g would generate, at most
// n of them and at most maxBytes of encoding, and leaves g where it was.
// The first Record allocates maxBytes and later ones reuse it, so a tape
// refilled with one maxBytes allocates once. A plan whose trace does not
// fit the encoding records none; the replay then generates everything,
// exactly as it would past any tape's end.
func (t *Tape) Record(g *Generator, n, maxBytes int) {
	pl := &g.plan
	t.start = g.cursor
	t.end = *g
	t.dataBase = [2]uint64{pl.base, pl.base + osDataBase}
	t.codeBase = [2]uint64{pl.base + codeBase, pl.base + osCodeBase}
	t.codeLimit = [2]uint64{pl.p.CodeBytes, osCodeBytes}
	t.codeEnd = [2]uint64{t.codeBase[0] + t.codeLimit[0], t.codeBase[1] + t.codeLimit[1]}
	if !tapeFits(pl) {
		n = 0
	}
	// Each word is appended whole and then cut to its size, so the buffer
	// holds maxBytes of encoding plus one word's overhang.
	if cap(t.buf) < maxBytes+TapeMaxBytes {
		t.buf = make([]byte, 0, maxBytes+TapeMaxBytes)
	}
	buf := t.buf[:0]
	t.n = 0
	var in Instr
	for ; t.n < n && len(buf)+TapeMaxBytes <= maxBytes; t.n++ {
		t.end.Next(&in)
		v := uint64(in.Kind)<<kindShift | uint64(in.DepDist)<<depShift
		var o, p uint64
		if in.OS {
			o = 1
			v |= 1 << osShift
		}
		switch in.Kind {
		case Load, Store:
			p = in.Addr - t.dataBase[o]
		case Branch:
			p = uint64(in.BranchID)
			if in.Taken {
				// The taken target is where this mode's PC now stands.
				target := t.end.pc
				if in.OS {
					target = t.end.osPC
				}
				v |= takenFlag
				p |= (target - t.codeBase[o]) << branchIDBits
			}
		}
		s := 0
		for p >= 1<<(16*s+16-payloadShift) && s < sizeMask {
			s++
		}
		v |= uint64(s) | p<<payloadShift
		buf = binary.LittleEndian.AppendUint64(buf, v)[:len(buf)+2*(s+1)]
	}
	t.size = len(buf)
	// The pad's bytes are whatever the last word left there: decoding
	// masks every word to its own size.
	t.buf = buf[:len(buf)+tapePad]
}

// Start returns the cursor of a replay of t by g, which must stand where
// the recording started.
func (t *Tape) Start(g *Generator) TapeCursor {
	if g.cursor != t.start || g.plan.base != t.dataBase[0] {
		panic(fmt.Sprintf("workload: tape replayed by a generator of core %d at another position than it was recorded from", g.plan.core))
	}
	return TapeCursor{pc: [2]uint64{t.start.pc, t.start.osPC}}
}

// Next decodes the instruction at cur into in, exactly as the recorded
// generator's Next filled it, and advances cur. Past the last one it
// reports false and fills nothing: the replay continues with Resume.
func (t *Tape) Next(cur *TapeCursor, in *Instr) bool {
	if cur.pos >= t.size {
		return false
	}
	v := binary.LittleEndian.Uint64(t.buf[cur.pos:])
	s := v & sizeMask
	v &= sizeWord[s]
	cur.pos += int(s+1) * 2
	k := v >> kindShift & kindMask
	o := v >> osShift & 1
	p := v >> payloadShift
	taken := v&takenFlag != 0
	in.Kind = Kind(k)
	in.Addr = (t.dataBase[o] + p) & addrMask[k]
	in.DepDist = int(v >> depShift & depMask)
	in.BranchID = int32(p & idMask[k])
	in.Taken = taken
	in.OS = o != 0
	// Fields are stored one by one: building an Instr literal and
	// copying it costs more than the decode itself. The PC is the mode's
	// cursor, which then steps one instruction, wrapping inside its
	// region, or jumps to a taken branch's target.
	pc := cur.pc[o]
	in.PC = pc
	next := pc + instrBytes
	for next >= t.codeEnd[o] {
		next -= t.codeLimit[o]
	}
	if taken {
		next = t.codeBase[o] + p>>branchIDBits
	}
	cur.pc[o] = next
	return true
}

// Resume sets g to the generator state after the tape's last instruction,
// where a replay that has decoded them all goes on generating.
func (t *Tape) Resume(g *Generator) { *g = t.end }
