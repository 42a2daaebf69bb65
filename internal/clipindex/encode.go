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

// TableBytes returns the exact serialised size of a clip table without
// encoding it: the 8-byte table header plus, per node, an 8-byte entry
// header and its clip points. It is the single source of truth for the
// clip-table storage footprint, shared by Index.AuxBytes, the encoder's
// buffer sizing, and the storage-breakdown reports.
func TableBytes(t Table, dims int) int {
	return tableBytes(len(t), t.ClipPointCount(), dims)
}

func tableBytes(nodes, points, dims int) int {
	return 8 + nodes*8 + points*ClipPointBytes(dims)
}

// EncodeTable serialises a clip table. Entries are written in ascending
// node-id order so the encoding is deterministic.
func EncodeTable(t Table, dims int) []byte { return encodeTable(t, dims, nil) }

// EncodeClips is the table's clip section as a snapshot stores it: EncodeTable
// when universe is nil (format 1), EncodeTableV2 against *universe otherwise,
// and nil — no section at all — for an empty table.
func (t Table) EncodeClips(dims int, universe *geom.Rect) []byte {
	if len(t) == 0 {
		return nil
	}
	return encodeTable(t, dims, universe)
}

// EncodeClips is Table.EncodeClips for the writer's current records, encoded
// straight from them: the bytes are those of x.Table().EncodeClips, without
// materialising the table (a durable commit runs this once per Flush).
func (x *Index) EncodeClips(dims int, universe *geom.Rect) []byte {
	nodes, points, _ := clipStats(&x.store, dims)
	if nodes == 0 {
		return nil
	}
	return encodeRecords(dims, universe, nodes, points, records(&x.store))
}

func encodeTable(t Table, dims int, universe *geom.Rect) []byte {
	return encodeRecords(dims, universe, len(t), t.ClipPointCount(), func(yield func(rtree.NodeID, core.Record) bool) {
		for _, id := range slices.Sorted(maps.Keys(t)) {
			yield(id, core.NewRecord(t[id], dims))
		}
	})
}

// encodeRecords writes a clip table of the given size in either layout: the
// header, then per node — they come in ascending id order — its entry header
// and its clip points. With a universe, points are quantised onto its grid
// where that is conservative (see encode_v2.go) and stored raw, flagged, where
// it is not.
func encodeRecords(dims int, universe *geom.Rect, nodes, points int, recs iter.Seq2[rtree.NodeID, core.Record]) []byte {
	le := binary.LittleEndian
	buf := make([]byte, 0, tableBytes(nodes, points, dims))
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(dims)), uint32(nodes))
	coord, grid := make([]float64, dims), make([]uint32, dims)
	for id, rec := range recs {
		n := rec.Len(dims)
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(id)), uint32(n))
		for i := 0; i < n; i++ {
			mask := rec.At(dims, i, coord)
			if universe != nil && quantisePoint(mask, coord, *universe, grid) {
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

// DecodeTable parses a clip table previously produced by EncodeTable.
// Scores are not persisted (they are only used to order clip points at
// construction time); decoded clip points keep their stored order.
func DecodeTable(buf []byte) (Table, int, error) { return decodeTable(buf, nil) }

// decodeTable parses either layout: raw float64 coordinates throughout
// without a universe, grid coordinates on it (raw for flagged points) with
// one.
func decodeTable(buf []byte, universe *geom.Rect) (Table, int, error) {
	if len(buf) < 8 {
		return nil, 0, errors.New("clipindex: clip table buffer too short")
	}
	dims := int(binary.LittleEndian.Uint32(buf[0:4]))
	if dims < 1 || dims > geom.MaxDims {
		return nil, 0, fmt.Errorf("clipindex: implausible dimensionality %d", dims)
	}
	if universe != nil && (universe.Dims() != dims || !universe.Valid()) {
		return nil, 0, fmt.Errorf("clipindex: v2 clip table needs a valid %d-dimensional universe", dims)
	}
	count := int(binary.LittleEndian.Uint32(buf[4:8]))
	off := 8
	table := make(Table, min(count, len(buf)/8))
	for i := 0; i < count; i++ {
		if off+8 > len(buf) {
			return nil, 0, errors.New("clipindex: truncated clip table entry header")
		}
		id := rtree.NodeID(binary.LittleEndian.Uint32(buf[off:]))
		n := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		if n > (len(buf)-off)/clipPointV2HeaderBytes {
			return nil, 0, errors.New("clipindex: truncated clip table")
		}
		clips := make([]core.ClipPoint, 0, n)
		for j := 0; j < n; j++ {
			if off+clipPointV2HeaderBytes > len(buf) {
				return nil, 0, errors.New("clipindex: truncated clip point")
			}
			mask := binary.LittleEndian.Uint32(buf[off:])
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
			coord := make(geom.Point, dims)
			for d := range coord {
				if raw {
					coord[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
				} else {
					coord[d] = clipQDecode(universe.Lo[d], universe.Hi[d], binary.LittleEndian.Uint32(buf[off:]))
				}
				off += width
			}
			clips = append(clips, core.ClipPoint{Coord: coord, Mask: geom.Corner(mask)})
		}
		table[id] = clips
	}
	return table, dims, nil
}
