package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command through its flags: the dataset list, CSV rows
// of the dataset's dimensions that repeat for a seed, the streaming and hot
// spot generators, a file as output, and the inputs it must reject.
func TestRun(t *testing.T) {
	rows := func(args ...string) []string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("datagen %v: %v", args, err)
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}
	if list := rows("-list"); len(list) < 6 || !strings.HasPrefix(list[0], "par02") {
		t.Fatalf("-list printed %q", list)
	}
	cases := []struct {
		args   []string
		n, ncs int // rows and comma-separated fields per row
	}{
		{[]string{"-dataset", "par02", "-n", "50", "-seed", "3"}, 50, 4},
		{[]string{"-dataset", "axo03", "-n", "40"}, 40, 6},
		{[]string{"-dataset", "rea02", "-n", "70", "-chunk", "16"}, 70, 4},
		{[]string{"-dataset", "hot02", "-n", "30", "-hotspots", "3", "-zipfs", "1.5"}, 30, 4},
	}
	for _, c := range cases {
		got := rows(c.args...)
		if len(got) != c.n {
			t.Errorf("datagen %v: %d rows, want %d", c.args, len(got), c.n)
		}
		for _, row := range got {
			if f := strings.Count(row, ",") + 1; f != c.ncs {
				t.Fatalf("datagen %v: row %q has %d fields, want %d", c.args, row, f, c.ncs)
			}
		}
		if again := rows(c.args...); strings.Join(again, "\n") != strings.Join(got, "\n") {
			t.Errorf("datagen %v: a second run differs", c.args)
		}
	}

	path := filepath.Join(t.TempDir(), "objects.csv")
	if got := rows("-n", "20", "-out", path); len(got) != 1 || got[0] != "" {
		t.Errorf("-out also wrote %q to stdout", got)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := rows("-n", "20"); string(file) != strings.Join(want, "\n")+"\n" {
		t.Error("-out file differs from the stdout rows")
	}

	for _, args := range [][]string{
		{"-dataset", "nope"},
		{"-chunk", "10", "-hotspots", "2"},
		{"-n", "x"},
		{"-out", filepath.Join(t.TempDir(), "missing", "dir.csv")},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("datagen %v: no error", args)
		}
	}
}
