package workload

import (
	"testing"

	"ntcsim/internal/rng"
)

// FuzzGeneratorInvariants drives every profile with arbitrary seeds and
// core IDs and checks the trace invariants the simulator relies on.
func FuzzGeneratorInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, coreID, profIdx uint8) {
		profiles := All()
		p := profiles[int(profIdx)%len(profiles)]
		core := int(coreID % 8)
		g := NewGenerator(NewPlan(p, core, rng.New(seed)))
		lo := uint64(core) << 34
		hi := uint64(core+1) << 34
		var in Instr
		for i := 0; i < 300; i++ {
			g.Next(&in)
			if in.PC < lo || in.PC >= hi {
				t.Fatalf("PC %x escapes core window [%x,%x)", in.PC, lo, hi)
			}
			switch in.Kind {
			case Load, Store:
				if in.Addr < lo || in.Addr >= hi {
					t.Fatalf("data address %x escapes core window", in.Addr)
				}
			case Branch:
				if in.BranchID < 0 || int(in.BranchID) >= p.StaticBranches {
					t.Fatalf("branch ID %d out of range", in.BranchID)
				}
			case ALU, FP:
			default:
				t.Fatalf("unknown instruction kind %v", in.Kind)
			}
			if in.DepDist < 0 || in.DepDist > 64 {
				t.Fatalf("dependency distance %d out of range", in.DepDist)
			}
		}
	})
}
