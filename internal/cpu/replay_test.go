package cpu

import (
	"reflect"
	"strings"
	"testing"

	"ntcsim/internal/workload"
)

// replaying returns a web-search core after a short warm-up, attached to
// a tape of its next n instructions.
func replaying(t *testing.T, n int) (*Core, *workload.Tape) {
	t.Helper()
	c := newCore(t, workload.WebSearch(), &fixedMem{latNs: 90}, 1e9, 4)
	c.FastForward(5_000)
	c.Run(2_000)
	tape := new(workload.Tape)
	c.Record(tape, n, n*workload.TapeMaxBytes)
	c.Replay(tape)
	return c, tape
}

// TestReplayMatchesGenerating: a core replaying a tape of its own stream
// runs exactly as one generating it, past the tape's end too.
func TestReplayMatchesGenerating(t *testing.T) {
	for _, n := range []int{0, 1, 3_000, 50_000} {
		c, _ := replaying(t, n)
		ref := newCore(t, workload.WebSearch(), &fixedMem{latNs: 90}, 1e9, 4)
		ref.FastForward(5_000)
		ref.Run(2_000)
		c.Run(8_000)
		ref.Run(8_000)
		if c.Stats() != ref.Stats() || c.Retired() != ref.Retired() {
			t.Fatalf("tape of %d: replaying core diverged:\n%+v\n%+v", n, c.Stats(), ref.Stats())
		}
	}
}

// TestUnfinishedReplayGuards: an unfinished replay has moved the core
// past its generator, so FastForward, Record and a second Replay panic
// with a cpu: message, while Clone carries the replay's position: the
// clone and its source run on identically.
func TestUnfinishedReplayGuards(t *testing.T) {
	for name, op := range map[string]func(c *Core, tape *workload.Tape){
		"FastForward": func(c *Core, _ *workload.Tape) { c.FastForward(10) },
		"Record":      func(c *Core, _ *workload.Tape) { c.Record(new(workload.Tape), 10, 80) },
		"Replay":      func(c *Core, tape *workload.Tape) { c.Replay(tape) },
	} {
		c, tape := replaying(t, 20_000)
		c.Run(1_000)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "cpu: "+name) {
					t.Errorf("%s on a replaying core: recovered %q, want a cpu: %s panic", name, msg, name)
				}
			}()
			op(c, tape)
		}()
	}

	c, _ := replaying(t, 20_000)
	c.Run(1_000)
	clone := c.Clone(&fixedMem{latNs: 90})
	if clone.tape == nil || clone.cursor != c.cursor {
		t.Fatal("Clone dropped the replay position")
	}
	c.Run(200_000)
	clone.Run(200_000)
	if c.tape != nil || clone.tape != nil {
		t.Fatalf("replays unfinished after %d instructions; test is vacuous", c.Retired())
	}
	if c.Stats() != clone.Stats() || !reflect.DeepEqual(c.gen, clone.gen) {
		t.Fatal("a clone of a replaying core did not run on as its source")
	}
}
