package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// reportCheck checks every report of one experiment in a run: it must
// equal the committed golden byte for byte or, for an experiment without
// a golden, the run's first report (the same seed gives the same bytes).
type reportCheck struct {
	experiment string
	want       []byte // the golden, else the first report; nil until then
	golden     bool
}

func (b *bench) newCheck(experiment string) (*reportCheck, error) {
	golden, err := os.ReadFile(filepath.Join(b.root, "cmd", "ntcsim", "testdata", "golden", experiment+".golden"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return &reportCheck{experiment: experiment, want: golden, golden: err == nil}, nil
}

func (c *reportCheck) check(got []byte) error {
	switch {
	case c.want == nil:
		if len(got) == 0 {
			return fmt.Errorf("%s report is empty", c.experiment)
		}
		c.want = append([]byte(nil), got...)
	case !bytes.Equal(got, c.want) && c.golden:
		return fmt.Errorf("%s report differs from its golden: %s", c.experiment, firstDiff(c.want, got))
	case !bytes.Equal(got, c.want):
		return fmt.Errorf("%s report differs between repetitions: %s", c.experiment, firstDiff(c.want, got))
	}
	return nil
}

// firstDiff locates the first differing line of two reports.
func firstDiff(want, got []byte) string {
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}
