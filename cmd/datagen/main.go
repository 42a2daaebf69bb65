// Command datagen generates the synthetic stand-in datasets used by the
// evaluation harness and writes them as CSV (one object per line:
// lo1,...,lod,hi1,...,hid) to stdout or a file. It exists so that the exact
// data any experiment ran on can be exported, inspected, or fed to other
// tools.
//
// Usage:
//
//	datagen -dataset axo03 -n 100000 -seed 7 -out axons.csv
//	datagen -dataset hot02 -hotspots 4 -zipfs 2.0 -out hot.csv
//	datagen -list
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"cbb/internal/datasets"
	"cbb/internal/geom"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fatal(err)
	}
}

// run is the command: it parses args and writes the objects, or the -list
// table, to stdout unless -out names a file.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		name     = fs.String("dataset", "par02", "dataset to generate")
		n        = fs.Int("n", 0, "number of objects (0 = dataset default)")
		seed     = fs.Int64("seed", 42, "random seed")
		out      = fs.String("out", "", "output file (default stdout)")
		list     = fs.Bool("list", false, "list available datasets and exit")
		chunk    = fs.Int("chunk", 0, "generate and write in chunks of this many objects, so datasets larger than RAM stream straight to the output (0 = materialise everything first; note a chunked run emits a different — still deterministic — object sequence)")
		hotspots = fs.Int("hotspots", 0, "hot02/hot03 only: number of hot regions (0 = default)")
		zipfs    = fs.Float64("zipfs", 0, "hot02/hot03 only: zipf exponent weighting the hot regions, > 1 (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, s := range datasets.Specs {
			fmt.Fprintf(stdout, "%-6s %dd  default %8d  paper %8d  %s\n",
				s.Name, s.Dims, s.DefaultSize, s.PaperSize, s.Description)
		}
		return nil
	}

	if *chunk > 0 && (*hotspots != 0 || *zipfs != 0) {
		return errors.New("-chunk cannot be combined with -hotspots/-zipfs")
	}

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = bufio.NewWriter(f)
	}

	written := 0
	emit := func(objs []geom.Rect) error {
		for _, o := range objs {
			line := make([]byte, 0, 128)
			for i, v := range o.Lo {
				if i > 0 {
					line = append(line, ',')
				}
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			for _, v := range o.Hi {
				line = append(line, ',')
				line = strconv.AppendFloat(line, v, 'g', -1, 64)
			}
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		written += len(objs)
		return nil
	}

	switch {
	case *chunk > 0:
		err = datasets.GenerateStream(*name, *n, *seed, *chunk, emit)
	case *hotspots != 0 || *zipfs != 0:
		var objs []geom.Rect
		objs, err = datasets.GenerateHot(*name, *n, *seed, datasets.HotParams{Hotspots: *hotspots, ZipfS: *zipfs})
		if err == nil {
			err = emit(objs)
		}
	default:
		var objs []geom.Rect
		objs, err = datasets.Generate(*name, *n, *seed)
		if err == nil {
			err = emit(objs)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d objects of %s to %s\n", written, *name, *out)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
