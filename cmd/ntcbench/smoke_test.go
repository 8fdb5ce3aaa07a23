package main

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAgainstRealPrograms builds ntcsim and ntcsimd from this
// checkout and drives each through the harness once: a CLI table1 and a
// daemon table1 job followed by its cache hit, each checked against the
// golden.
func TestSmokeAgainstRealPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ntcsim and ntcsimd")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	b := &bench{root: root, bin: t.TempDir(), work: t.TempDir(), seed: goldenSeed}
	if err := build(ctx, root, b.bin); err != nil {
		t.Fatal(err)
	}
	check, err := b.newCheck("table1")
	if err != nil {
		t.Fatal(err)
	}

	out, _, err := b.ntcsim(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if err := check.check(out); err != nil {
		t.Fatal(err)
	}

	d, err := b.startDaemon(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	_, rep, _, _, err := d.coldJob(ctx, "table1", b.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.check(rep); err != nil {
		t.Fatal(err)
	}
	if _, err := d.hit(ctx, "table1", b.seed, rep); err != nil {
		t.Fatal(err)
	}
	if err := d.stop(); err != nil {
		t.Fatal(err)
	}
}
