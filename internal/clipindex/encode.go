package clipindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

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
func EncodeTable(t Table, dims int) []byte {
	ids := make([]rtree.NodeID, 0, len(t))
	for id := range t {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, TableBytes(t, dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		clips := t[id]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(clips)))
		for _, c := range clips {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Mask))
			for d := 0; d < dims; d++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Coord[d]))
			}
		}
	}
	return buf
}

// DecodeTable parses a clip table previously produced by EncodeTable.
// Scores are not persisted (they are only used to order clip points at
// construction time); decoded clip points keep their stored order.
func DecodeTable(buf []byte) (Table, int, error) {
	if len(buf) < 8 {
		return nil, 0, errors.New("clipindex: clip table buffer too short")
	}
	dims := int(binary.LittleEndian.Uint32(buf[0:4]))
	if dims < 1 || dims > geom.MaxDims {
		return nil, 0, fmt.Errorf("clipindex: implausible dimensionality %d", dims)
	}
	count := int(binary.LittleEndian.Uint32(buf[4:8]))
	off := 8
	table := make(Table, count)
	for i := 0; i < count; i++ {
		if off+8 > len(buf) {
			return nil, 0, errors.New("clipindex: truncated clip table entry header")
		}
		id := rtree.NodeID(binary.LittleEndian.Uint32(buf[off:]))
		n := int(binary.LittleEndian.Uint32(buf[off+4:]))
		off += 8
		clips := make([]core.ClipPoint, 0, n)
		for j := 0; j < n; j++ {
			if off+ClipPointBytes(dims) > len(buf) {
				return nil, 0, errors.New("clipindex: truncated clip point")
			}
			mask := geom.Corner(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			coord := make(geom.Point, dims)
			for d := 0; d < dims; d++ {
				coord[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
				off += 8
			}
			clips = append(clips, core.ClipPoint{Coord: coord, Mask: mask})
		}
		table[id] = clips
	}
	return table, dims, nil
}
