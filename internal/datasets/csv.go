package datasets

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cbb/internal/geom"
)

// ReadCSV parses the rectangle CSV format cmd/datagen writes — one object
// per line, `lo1,...,lod,hi1,...,hid` — so served datasets can round-trip
// through files (datagen → cbbserve / cbbload). Dimensionality is inferred
// from the first line; blank lines and `#` comments are skipped.
func ReadCSV(r io.Reader) ([]geom.Rect, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []geom.Rect
	dims := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if dims == 0 {
			if len(fields)%2 != 0 || len(fields) == 0 {
				return nil, fmt.Errorf("datasets: line %d: %d fields, want an even count (lo...,hi...)", lineNo, len(fields))
			}
			dims = len(fields) / 2
		}
		if len(fields) != 2*dims {
			return nil, fmt.Errorf("datasets: line %d: %d fields, want %d", lineNo, len(fields), 2*dims)
		}
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			v, err := strconv.ParseFloat(strings.TrimSpace(fields[d]), 64)
			if err != nil {
				return nil, fmt.Errorf("datasets: line %d field %d: %w", lineNo, d+1, err)
			}
			lo[d] = v
			v, err = strconv.ParseFloat(strings.TrimSpace(fields[dims+d]), 64)
			if err != nil {
				return nil, fmt.Errorf("datasets: line %d field %d: %w", lineNo, dims+d+1, err)
			}
			hi[d] = v
		}
		rect, err := geom.NewRect(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %w", lineNo, err)
		}
		out = append(out, rect)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("datasets: CSV contains no objects")
	}
	return out, nil
}

// BoundingUniverse returns the MBB of a loaded object set, the universe to
// serve a CSV dataset under when none is known a priori.
func BoundingUniverse(objs []geom.Rect) geom.Rect {
	var out geom.Rect
	for _, o := range objs {
		if out.IsZero() {
			out = o.Clone()
			continue
		}
		out = out.Union(o)
	}
	return out
}

// Load returns the objects a command serves or queries, with their universe:
// those of the CSV file at path when it is set, under BoundingUniverse, and
// otherwise n objects (0 for the default count) of the named dataset
// generated from seed, under its Universe.
func Load(path, name string, n int, seed int64) ([]geom.Rect, geom.Rect, error) {
	if path == "" {
		objs, err := Generate(name, n, seed)
		if err != nil {
			return nil, geom.Rect{}, err
		}
		uni, err := Universe(name)
		return objs, uni, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, geom.Rect{}, err
	}
	defer f.Close()
	objs, err := ReadCSV(f)
	if err != nil {
		return nil, geom.Rect{}, err
	}
	return objs, BoundingUniverse(objs), nil
}
