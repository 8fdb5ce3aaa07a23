package workload

import (
	"reflect"
	"testing"

	"ntcsim/internal/rng"
)

// FuzzTapeMatchesGenerator records up to n instructions of a generator
// in maxBytes, and requires their replay to equal as many Next calls
// instruction by instruction, and the tape's end state to equal the
// generator after them. A budget of TapeMaxBytes per instruction holds
// all n. The profiles cover long OS bursts, a code footprint small enough
// to wrap every few instructions, and taken branches that jump near or
// far.
func FuzzTapeMatchesGenerator(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(300), uint16(65535))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(6), uint16(5000), uint16(65535))
	f.Add(uint64(7), uint8(1), uint8(7), uint16(2000), uint16(65535))
	f.Add(uint64(99), uint8(2), uint8(8), uint16(1), uint16(8))
	f.Add(uint64(5), uint8(0), uint8(9), uint16(0), uint16(100))
	f.Add(uint64(11), uint8(5), uint8(6), uint16(9000), uint16(4000))
	f.Fuzz(func(t *testing.T, seed uint64, coreID, profIdx uint8, n, maxBytes uint16) {
		profiles := tapeProfiles()
		p := profiles[int(profIdx)%len(profiles)]
		pl := NewPlan(p, int(coreID%8), rng.New(seed))
		ref, rec := NewGenerator(pl), NewGenerator(pl)
		var tape Tape
		tape.Record(rec, int(n), int(maxBytes))
		if tape.n > int(n) || tape.size > int(maxBytes) {
			t.Fatalf("%s: recorded %d instructions in %d bytes, above %d in %d",
				p.Name, tape.n, tape.size, n, maxBytes)
		}
		if fits := int(maxBytes) >= int(n)*TapeMaxBytes; fits && tape.n != int(n) {
			t.Fatalf("%s: recorded %d instructions, want %d", p.Name, tape.n, n)
		}
		if !reflect.DeepEqual(rec, ref) {
			t.Fatalf("%s: Record moved the generator it recorded from", p.Name)
		}
		cur := tape.Start(rec)
		var want, got Instr
		for i := 0; i < tape.n; i++ {
			ref.Next(&want)
			if !tape.Next(&cur, &got) {
				t.Fatalf("%s: tape ended after %d of %d instructions", p.Name, i, tape.n)
			}
			if got != want {
				t.Fatalf("%s: instruction %d: replayed %+v, generated %+v", p.Name, i, got, want)
			}
		}
		if tape.Next(&cur, &got) {
			t.Fatalf("%s: tape runs past its %d instructions", p.Name, tape.n)
		}
		tape.Resume(rec)
		if !reflect.DeepEqual(rec, ref) {
			t.Fatalf("%s: end state after %d instructions differs from the generator's", p.Name, tape.n)
		}
		for i := 0; i < 64; i++ {
			ref.Next(&want)
			rec.Next(&got)
			if got != want {
				t.Fatalf("%s: instruction %d after resuming: %+v, want %+v", p.Name, i, got, want)
			}
		}
	})
}

// tapeProfiles returns every registered profile plus three built to
// stress the tape's PC reconstruction: long OS bursts, a 12-byte code
// footprint that wraps every third instruction, and a branch-heavy trace
// whose taken branches jump far half the time.
func tapeProfiles() []*Profile {
	osHeavy := WebServing()
	osHeavy.Name, osHeavy.OSFrac, osHeavy.OSBurst = "os-heavy", 0.6, 400
	tiny := WebSearch()
	tiny.Name, tiny.CodeBytes = "tiny-code", 12
	jumpy := MediaStreaming()
	jumpy.Name, jumpy.BranchFrac, jumpy.CodeJumpP, jumpy.BiasAlpha, jumpy.BiasBeta = "jumpy", 0.4, 0.5, 5, 1
	return append(append(All(), Extended()...), osHeavy, tiny, jumpy, Bubble())
}

// TestTapeCoversPCModes checks that the fuzz corpus profiles reach what
// the tape must rebuild: OS instructions, code wrap-around, and near and
// far taken jumps in both modes.
func TestTapeCoversPCModes(t *testing.T) {
	var osInstr, wraps, near, far int
	for _, p := range tapeProfiles() {
		g := NewGenerator(NewPlan(p, 1, rng.New(3)))
		var in Instr
		for i := 0; i < 20000; i++ {
			pc, osPC := g.pc, g.osPC
			g.Next(&in)
			prev, now := pc, g.pc
			if in.OS {
				osInstr++
				prev, now = osPC, g.osPC
			}
			switch {
			case in.Taken && (now > prev+2048 || now+2048 < prev):
				far++
			case in.Taken:
				near++
			case now < prev:
				wraps++
			}
		}
	}
	if osInstr == 0 || wraps == 0 || near == 0 || far == 0 {
		t.Fatalf("corpus misses a PC mode: %d OS instructions, %d wraps, %d near and %d far jumps",
			osInstr, wraps, near, far)
	}
}

// TestTapeStartRejectsOtherPosition: a tape replays only from the
// position it was recorded at.
func TestTapeStartRejectsOtherPosition(t *testing.T) {
	g := NewGenerator(NewPlan(WebSearch(), 0, rng.New(1)))
	var tape Tape
	tape.Record(g, 10, 10*TapeMaxBytes)
	var in Instr
	g.Next(&in)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Start accepted a generator past the recording's start")
		}
	}()
	tape.Start(g)
}

// TestTapeRecordReusesBuffer: a tape refilled within one byte budget
// allocates once, and the budget, not the count, ends a long recording.
func TestTapeRecordReusesBuffer(t *testing.T) {
	const maxBytes = 4 << 10
	g := NewGenerator(NewPlan(DataServing(), 2, rng.New(9)))
	var tape Tape
	tape.Record(g, 1<<20, maxBytes)
	if tape.n == 0 || tape.n == 1<<20 || tape.size > maxBytes {
		t.Fatalf("recorded %d instructions in %d bytes: the %d-byte budget did not end it",
			tape.n, tape.size, maxBytes)
	}
	var in Instr
	allocs := testing.AllocsPerRun(20, func() {
		g.Next(&in)
		tape.Record(g, 1<<20, maxBytes)
	})
	if allocs != 0 {
		t.Fatalf("refilling a tape allocates %.1f times, want 0", allocs)
	}
}
