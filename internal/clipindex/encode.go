package clipindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
	"cbb/internal/skyline"
)

// This file implements the physical layout of the auxiliary clip structure
// of Figure 4b: a directory keyed by node id giving the number of clip
// points, followed per clip point by its corner bitmask and the d coordinate
// values. The format is little-endian and self-describing enough for a
// round trip; it exists to quantify the storage overhead of clipping
// (Figure 13) and to persist clipped indexes.

// ClipPointBytes returns the serialised size of one clip point in d
// dimensions: a 4-byte corner bitmask plus d float64 coordinates. (The
// conceptual cost in the paper is a d-bit flag plus d coordinates; the
// 4-byte mask is the aligned practical encoding.)
func ClipPointBytes(dims int) int { return 4 + dims*8 }

func tableBytes(nodes, points, dims int) int {
	return 8 + nodes*8 + points*ClipPointBytes(dims)
}

// EncodeClips is the table's clip section as a snapshot stores it: raw
// float64 coordinates when universe is nil (format 1), quantised onto
// *universe otherwise (format 2, encode_v2.go), and nil — no section at all —
// for an empty table. Entries are written in ascending node-id order, so the
// encoding is deterministic.
func (t Table) EncodeClips(dims int, universe *geom.Rect) []byte {
	ids := slices.Sorted(maps.Keys(t))
	return encodeRecords(dims, universe, func(yield func(rtree.NodeID, core.Record) bool) {
		for _, id := range ids {
			if !yield(id, t[id]) {
				return
			}
		}
	})
}

// EncodeClips is Table.EncodeClips for the writer's current records, encoded
// straight from the tree's directory (a durable commit runs this once per
// Flush).
func (x *Index) EncodeClips(dims int, universe *geom.Rect) []byte {
	return encodeRecords(dims, universe, x.tree.Records())
}

// encodeRecords writes a clip table in either layout: the header, then per
// node — they come in ascending id order — its entry header and its clip
// points. With a universe, points are quantised onto its grid where that is
// conservative (see encode_v2.go) and stored raw, flagged, where it is not.
func encodeRecords(dims int, universe *geom.Rect, recs iter.Seq2[rtree.NodeID, core.Record]) []byte {
	nodes, _, size := clipStats(recs, dims)
	if nodes == 0 {
		return nil
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(dims)), uint32(nodes))
	coord, grid := make([]float64, dims), make([]uint32, dims)
	var grids []clipGrid
	if universe != nil {
		grids = clipGrids(*universe)
	}
	for id, rec := range recs {
		n := rec.Len(dims)
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(id)), uint32(n))
		for i := 0; i < n; i++ {
			mask := rec.At(dims, i, coord)
			if universe != nil && quantisePoint(mask, coord, grids, grid) {
				buf = le.AppendUint32(buf, uint32(mask))
				for _, g := range grid {
					buf = le.AppendUint32(buf, g)
				}
				continue
			}
			if universe != nil {
				mask |= geom.Corner(clipRawFlag)
			}
			buf = le.AppendUint32(buf, uint32(mask))
			for _, v := range coord {
				buf = le.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf
}

// DecodeClips parses a clip section written by EncodeClips with the same
// universe (nil for format 1) and returns it with its dimensionality. Each
// point's mask word and coordinates go straight into its node's record, laid
// out as core.Record lays them out — one allocation per node with clip
// points; an entry with none is dropped. Points keep their stored order.
func DecodeClips(buf []byte, universe *geom.Rect) (Table, int, error) {
	le := binary.LittleEndian
	if len(buf) < 8 {
		return nil, 0, errors.New("clipindex: clip table buffer too short")
	}
	dims := int(le.Uint32(buf))
	if dims < 1 || dims > geom.MaxDims {
		return nil, 0, fmt.Errorf("clipindex: implausible dimensionality %d", dims)
	}
	// minPoint is the smallest a clip point can be stored in, which bounds
	// an entry's point count by the bytes left before anything is allocated.
	minPoint := ClipPointBytes(dims)
	var grid []uint32
	var grids []clipGrid
	if universe != nil {
		if universe.Dims() != dims || !universe.Valid() {
			return nil, 0, fmt.Errorf("clipindex: v2 clip table needs a valid %d-dimensional universe", dims)
		}
		minPoint, grid, grids = clipPointV2HeaderBytes+4*dims, make([]uint32, dims), clipGrids(*universe)
	}
	count := int(le.Uint32(buf[4:]))
	off := 8
	table := make(Table, min(count, len(buf)/8))
	for range count {
		if off+8 > len(buf) {
			return nil, 0, errors.New("clipindex: truncated clip table entry header")
		}
		id := rtree.NodeID(le.Uint32(buf[off:]))
		n := int(le.Uint32(buf[off+4:]))
		off += 8
		if n > (len(buf)-off)/minPoint {
			return nil, 0, errors.New("clipindex: truncated clip table")
		}
		if n == 0 {
			continue
		}
		rec := make(core.Record, n*(dims+1))
		for p := rec; len(p) > 0; p = p[dims+1:] {
			if off+clipPointV2HeaderBytes > len(buf) {
				return nil, 0, errors.New("clipindex: truncated clip point")
			}
			mask := le.Uint32(buf[off:])
			off += clipPointV2HeaderBytes
			raw, width := universe == nil || mask&clipRawFlag != 0, 8
			if universe != nil {
				mask &^= clipRawFlag
			}
			if !raw {
				width = 4
			}
			if off+dims*width > len(buf) {
				return nil, 0, errors.New("clipindex: truncated clip point")
			}
			p[0] = math.Float64frombits(uint64(mask))
			coord := p[1 : dims+1]
			for d := range coord {
				if raw {
					coord[d] = math.Float64frombits(le.Uint64(buf[off:]))
				} else {
					coord[d] = clipQDecode(universe.Lo[d], universe.Hi[d], le.Uint32(buf[off:]))
				}
				off += width
			}
			if raw && universe != nil && quantisePoint(geom.Corner(mask), coord, grids, grid) {
				return nil, 0, errors.New("clipindex: v2 clip point stored raw although the grid holds it")
			}
			skyline.Reflect(coord, coord, geom.Corner(mask))
		}
		table[id] = rec
	}
	return table, dims, nil
}
