package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildEngine boots every kind of engine cbbserve serves — a synthetic
// dataset, a CSV file, a sharded tree, a snapshot file created and then
// reopened — and checks the flags it must refuse.
func TestBuildEngine(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "objects.csv")
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "%d,%d,%d,%d\n", i%17, i%23, i%17+2, i%23+1)
	}
	if err := os.WriteFile(csv, []byte(rows.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(dir, "tree.cbb")
	base := engineConfig{dataset: "par02", n: 400, seed: 3, variant: "rr*", clip: "csta"}
	with := func(edit func(*engineConfig)) engineConfig {
		c := base
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  engineConfig
		len  int
		desc string
	}{
		{"dataset", base, 400, "dataset par02 seed 3"},
		{"dataset 3-D, quadratic, no clipping", with(func(c *engineConfig) { c.dataset, c.variant, c.clip = "axo03", "qr", "none" }), 400, "dataset axo03"},
		{"csv", with(func(c *engineConfig) { c.data, c.variant, c.clip = csv, "hr", "csky" }), 300, "csv " + csv},
		{"sharded", with(func(c *engineConfig) { c.shards, c.variant = 3, "r*" }), 400, "3 shards"},
		{"snapshot created", with(func(c *engineConfig) { c.file = snapshot }), 400, "-> " + snapshot},
		{"snapshot reopened", with(func(c *engineConfig) { c.file, c.dataset, c.bufferPool = snapshot, "nope", 16 }), 400, "snapshot " + snapshot},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, desc, err := buildEngine(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := eng.Close(); err != nil {
					t.Error(err)
				}
			}()
			if eng.Len() != c.len || !strings.Contains(desc, c.desc) {
				t.Errorf("Len %d, desc %q; want %d objects and %q", eng.Len(), desc, c.len, c.desc)
			}
			if err := eng.Flush(); err != nil {
				t.Error(err)
			}
		})
	}

	for name, cfg := range map[string]engineConfig{
		"variant":       with(func(c *engineConfig) { c.variant = "b-tree" }),
		"clip":          with(func(c *engineConfig) { c.clip = "convex" }),
		"dataset":       with(func(c *engineConfig) { c.dataset = "nope" }),
		"csv":           with(func(c *engineConfig) { c.data = filepath.Join(dir, "missing.csv") }),
		"file + shards": with(func(c *engineConfig) { c.file, c.shards = filepath.Join(dir, "other.cbb"), 2 }),
	} {
		if eng, _, err := buildEngine(cfg); err == nil {
			eng.Close()
			t.Errorf("bad %s: no error", name)
		}
	}
}
