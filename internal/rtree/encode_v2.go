package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"cbb/internal/geom"
)

// This file implements the compressed v2 node page layout. The paper's whole
// bet is spending negligible CPU (clipping, dominance tests) to save I/O; the
// v2 codec extends that trade to the storage layer:
//
//   - Directory entries store their child MBBs as fixed-bit integers
//     quantised against the node's own MBB (DirQuantBits per coordinate,
//     lower bounds rounded down, upper bounds rounded up), so a decoded
//     directory rect is a conservative superset of the exact one. Traversal
//     stays admissible — a superset can only add node visits, never skip a
//     qualifying subtree — and the final filtering happens on leaf rects,
//     which stay exact.
//   - Leaf entries are compressed losslessly: the IEEE-754 bit patterns of
//     consecutive coordinates are delta-encoded as zigzag varints (entry
//     lows against the previous entry's lows, highs against the same entry's
//     lows, object ids against the previous id). Coordinate deltas are first
//     right-shifted by the node's common trailing-zero count — data with
//     limited precision (e.g. float32-representable survey coordinates)
//     leaves 29+ zero bits at the bottom of every delta, which the shift
//     removes before the varint; full-entropy data degrades to shift 0.
//     Query results over a v2 snapshot are therefore bit-identical to v1. A
//     per-node raw fallback bounds the worst case for adversarial leaves
//     that would expand.
//
// A node page is:
//
//	[0]    flags (bit 0: leaf, bit 1: raw leaf entries)
//	[1]    level
//	[2]    directory: quantisation bits per coordinate (DirQuantBits)
//	       leaf:      right-shift applied to coordinate deltas (0..63)
//	[3:7]  node id (uint32)
//	[7:11] entry count (uint32)
//	[11:]  node MBB: dims lo float64, dims hi float64 (exact)
//	then, directory: per entry dims uint16 qlo, dims uint16 qhi, uint32 child
//	then, leaf:      the delta/varint stream, or raw v1 entries (bit 1)

// PageCodec selects a physical node page layout.
type PageCodec uint8

// Page codecs.
const (
	// CodecV1 is the original fixed-width layout of Figure 4a: every
	// coordinate a raw float64, every child/object reference 8 bytes.
	CodecV1 PageCodec = 1
	// CodecV2 is the compressed layout: quantised directory rects (lossy but
	// conservative) and delta/varint leaf rects (lossless).
	CodecV2 PageCodec = 2
)

// String names the codec like the snapshot format version that selects it.
func (c PageCodec) String() string {
	switch c {
	case CodecV1:
		return "v1"
	case CodecV2:
		return "v2"
	default:
		return fmt.Sprintf("PageCodec(%d)", uint8(c))
	}
}

// DirQuantBits is the number of bits per quantised directory coordinate.
const DirQuantBits = 16

const (
	dirQMax = 1<<DirQuantBits - 1

	nodeHeaderV2Bytes = 1 + 1 + 1 + 4 + 4 // flags, level, qbits, id, count

	flagV2Leaf    = 1 << 0
	flagV2RawLeaf = 1 << 1

	dirEntryV2Bytes = 2*2 + 4 // per dim: qlo+qhi uint16 — plus child uint32
)

// dirEntryBytesV2 returns the fixed encoded size of one directory entry.
func dirEntryBytesV2(dims int) int { return dims*4 + 4 }

// qdecode reconstructs the coordinate of grid value q on the [lo, hi] range.
// The endpoints decode exactly: q=0 is lo, q=dirQMax is hi, so a degenerate
// range (hi == lo) and true MBB edges survive the round trip bit-identically.
func qdecode(lo, hi float64, q uint32) float64 {
	switch q {
	case 0:
		return lo
	case dirQMax:
		return hi
	}
	return lo + (hi-lo)*(float64(q)/dirQMax)
}

// grid is one dimension of a node's 16-bit grid: the [lo, hi] range its
// coordinates are quantised against, the scale s = dirQMax/(hi−lo) that
// estimates a coordinate's cell with one multiplication, and the slack that
// certifies an estimate. Its one division is paid once per dimension and
// node, not once per bound.
//
// lower and upper return qlower's and qupper's definitions: the largest grid
// value that decodes to at most x, the smallest that decodes to at least x.
// When the estimate f lies inside the grid and its fraction more than slack
// cells from a cell edge, the answer is ⌊f⌋ (⌊f⌋+1 for upper) without a
// decode: f and qdecode are each within 65535·u·(8 + 4(|lo|+|hi|)/(hi−lo))
// cells of the exact real values (u = 2⁻⁵³), and slack, 2⁻⁴⁰·(|lo|+|hi|+hi−lo)·s,
// is a thousand times that. Otherwise the estimate only seeds the nudge
// loops, which verify against qdecode and step to the one value the
// definition names whatever the seed (qdecode is monotone in q).
// TestGridMatchesDivisionForm and TestGridExhaustive hold both paths to the
// one-division-per-bound form bit for bit.
type grid struct{ lo, hi, s, slack float64 }

func newGrid(lo, hi float64) grid {
	// A degenerate range, or one so narrow that its scale overflows, gets an
	// infinite (or NaN) scale and slack: it certifies nothing.
	s := dirQMax / max(hi-lo, 0)
	return grid{lo: lo, hi: hi, s: s, slack: 0x1p-40 * (math.Abs(lo) + math.Abs(hi) + (hi - lo)) * s}
}

// certain returns ⌊f⌋ for x's estimate f, and whether f certifies it (see
// grid); a degenerate range certifies nothing.
func (g grid) certain(x float64) (uint32, bool) {
	f := (x - g.lo) * g.s
	if !(f > g.slack && f < dirQMax-g.slack) {
		return 0, false
	}
	q := uint32(f)
	fr := f - float64(q)
	return q, fr > g.slack && fr < 1-g.slack
}

// lower quantises a lower bound: the largest grid value that decodes to at
// most x. NaN or an x below lo (impossible for a true MBB, defensive
// otherwise) yield 0, which decodes to lo: for a lower bound that is the only
// safe floor available. A degenerate range (hi ≤ lo, or NaN) quantises
// everything to 0.
func (g grid) lower(x float64) uint16 {
	if q, ok := g.certain(x); ok {
		return uint16(q)
	}
	return g.nudgeLower(x)
}

// upper quantises an upper bound: the smallest grid value that decodes to at
// least x (dirQMax when even hi falls short, which cannot happen for a true
// MBB).
func (g grid) upper(x float64) uint16 {
	if q, ok := g.certain(x); ok {
		return uint16(q + 1)
	}
	return g.nudgeUpper(x)
}

// estimate is x's grid coordinate as a float64 (NaN for NaN), the seed of
// the nudge loops. A range so narrow that its scale overflows falls back to
// the division.
func (g grid) estimate(x float64) float64 {
	if g.s <= math.MaxFloat64 {
		return (x - g.lo) * g.s
	}
	return (x - g.lo) / (g.hi - g.lo) * dirQMax
}

// nudgeLower is lower where the estimate does not certify the answer: the
// seed is verified against qdecode and nudged — the loops are bounded by the
// grid size and collapse to zero iterations for sane inputs.
func (g grid) nudgeLower(x float64) uint16 {
	if !(g.hi-g.lo > 0) {
		return 0
	}
	f := g.estimate(x)
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= dirQMax:
		q = dirQMax
	default:
		q = uint32(f)
	}
	for q > 0 && qdecode(g.lo, g.hi, q) > x {
		q--
	}
	for q < dirQMax && qdecode(g.lo, g.hi, q+1) <= x {
		q++
	}
	return uint16(q)
}

// nudgeUpper is upper where the estimate does not certify the answer.
func (g grid) nudgeUpper(x float64) uint16 {
	if !(g.hi-g.lo > 0) {
		return 0
	}
	f := g.estimate(x)
	var q uint32
	switch {
	case !(f > 0):
		q = 0
	case f >= dirQMax:
		q = dirQMax
	default:
		q = uint32(f) + 1
	}
	for q < dirQMax && qdecode(g.lo, g.hi, q) < x {
		q++
	}
	for q > 0 && qdecode(g.lo, g.hi, q-1) >= x {
		q--
	}
	return uint16(q)
}

// qlower and qupper are grid.lower and grid.upper on a range used once.
func qlower(x, lo, hi float64) uint16 { return newGrid(lo, hi).lower(x) }
func qupper(x, lo, hi float64) uint16 { return newGrid(lo, hi).upper(x) }

// leafDeltaShift computes the common trailing-zero count of a leaf's
// coordinate bit-pattern deltas — the exact number of bottom bits the varint
// stream can drop. Zero deltas are ignored (they stay zero under any shift);
// a leaf with only zero deltas reports 0.
func leafDeltaShift(n *node, dims int, mbb geom.Rect) int {
	shift := 64
	prev := make([]uint64, dims)
	for d := 0; d < dims; d++ {
		prev[d] = math.Float64bits(mbb.Lo[d])
	}
	for i := range n.refs {
		r := n.rect(i, dims)
		for d := 0; d < dims; d++ {
			lo := math.Float64bits(r.Lo[d])
			if delta := lo - prev[d]; delta != 0 {
				if tz := bits.TrailingZeros64(delta); tz < shift {
					shift = tz
				}
			}
			prev[d] = lo
			if delta := math.Float64bits(r.Hi[d]) - lo; delta != 0 {
				if tz := bits.TrailingZeros64(delta); tz < shift {
					shift = tz
				}
			}
		}
	}
	if shift == 64 {
		return 0
	}
	return shift
}

// zigzag maps a signed delta onto the unsigned varint domain.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeNodeV2 serialises a node into the compressed v2 layout. It fails only
// on references the layout cannot carry (a child id beyond uint32), which the
// directory's plausibility bounds make unreachable for trees this package built.
func encodeNodeV2(n *node, dims int) ([]byte, error) {
	// A directory node with an in-memory filter layer is encoded from it
	// verbatim: the planes ARE qlower/qupper of the exact entry bounds
	// against the node MBB (syncPlanes), so the output is identical to
	// recomputing — and for a node faulted in from a v2 page (whose decoded
	// rects are conservative supersets), reusing the adopted coordinates
	// keeps a v2→v2 transcode byte-stable instead of re-quantising the
	// already-expanded rects one grid cell wider.
	usePlanes := !n.leaf && n.hasPlanes(dims)
	var mbb geom.Rect
	switch {
	case usePlanes:
		mbb = geom.Rect{Lo: n.qmbb[:dims], Hi: n.qmbb[dims:]}
	case n.count() == 0:
		mbb = geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)}
	default:
		mbb = n.mbb()
	}
	buf := make([]byte, 0, nodeHeaderV2Bytes+16*dims+n.count()*(dims*4+8))
	flags := byte(0)
	if n.leaf {
		flags |= flagV2Leaf
	}
	// Byte [2] carries the directory quantisation width, or — on leaves — the
	// common right-shift of the coordinate deltas (their minimum trailing-zero
	// count): limited-precision data leaves a run of zero bits at the bottom
	// of every bit-pattern delta, worth ~shift/7 varint bytes per coordinate.
	shift := 0
	qbits := byte(DirQuantBits)
	if n.leaf {
		shift = leafDeltaShift(n, dims, mbb)
		qbits = byte(shift)
	}
	buf = append(buf, flags, byte(n.level), qbits)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.id))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n.count()))
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbb.Lo[d]))
	}
	for d := 0; d < dims; d++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbb.Hi[d]))
	}

	if !n.leaf {
		for i := range n.refs {
			child, r := n.child(i), n.rect(i, dims)
			if child < 0 || int64(child) > math.MaxUint32 {
				return nil, fmt.Errorf("rtree: node %d child id %d does not fit the v2 layout", n.id, child)
			}
			if usePlanes {
				for d := 0; d < dims; d++ {
					buf = binary.LittleEndian.AppendUint16(buf, n.planeAt(dims, d, i, false))
				}
				for d := 0; d < dims; d++ {
					buf = binary.LittleEndian.AppendUint16(buf, n.planeAt(dims, d, i, true))
				}
			} else {
				for d := 0; d < dims; d++ {
					buf = binary.LittleEndian.AppendUint16(buf, qlower(r.Lo[d], mbb.Lo[d], mbb.Hi[d]))
				}
				for d := 0; d < dims; d++ {
					buf = binary.LittleEndian.AppendUint16(buf, qupper(r.Hi[d], mbb.Lo[d], mbb.Hi[d]))
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(child))
		}
		return buf, nil
	}

	// Leaf: lossless delta/varint stream. Entry order is preserved — it is
	// part of the bit-identical-results contract — so deltas ride on the
	// spatial locality the build already produced rather than a re-sort.
	payloadStart := len(buf)
	prevLo := make([]uint64, dims)
	for d := 0; d < dims; d++ {
		prevLo[d] = math.Float64bits(mbb.Lo[d])
	}
	prevObj := int64(0)
	for i, obj := range n.refs {
		r := n.rect(i, dims)
		for d := 0; d < dims; d++ {
			lo := math.Float64bits(r.Lo[d])
			buf = binary.AppendUvarint(buf, zigzag(int64(lo-prevLo[d])>>shift))
			prevLo[d] = lo
		}
		for d := 0; d < dims; d++ {
			hi := math.Float64bits(r.Hi[d])
			buf = binary.AppendUvarint(buf, zigzag(int64(hi-prevLo[d])>>shift))
		}
		buf = binary.AppendUvarint(buf, zigzag(obj-prevObj))
		prevObj = obj
	}
	if len(buf)-payloadStart >= n.count()*EntryBytes(dims) {
		// The stream expanded past the raw layout — rewrite the payload raw so
		// a v2 page is never larger than nodeHeaderV2Bytes + MBB + v1 entries.
		buf = buf[:payloadStart]
		buf[0] |= flagV2RawLeaf
		buf[2] = 0 // no delta shift in the raw layout
		buf = append(buf, encodeNode(n, dims)[nodeHeaderBytes:]...)
	}
	return buf, nil
}

// decodeNodeV2 parses a compressed node page. Directory entry rects come back
// conservatively expanded (supersets of what was encoded); leaf entry rects
// and object ids come back bit-identical. It returns an error for malformed
// input and never allocates proportionally to untrusted length fields.
func decodeNodeV2(buf []byte, dims int) (*node, error) {
	if len(buf) < nodeHeaderV2Bytes+16*dims {
		return nil, errors.New("rtree: v2 node page too short")
	}
	flags := buf[0]
	n := &node{}
	n.leaf = flags&flagV2Leaf != 0
	n.level = int32(buf[1])
	qbits := buf[2]
	shift := 0
	if n.leaf {
		if qbits > 63 {
			return nil, fmt.Errorf("rtree: implausible leaf delta shift %d", qbits)
		}
		shift = int(qbits)
	} else if qbits != DirQuantBits {
		return nil, fmt.Errorf("rtree: unsupported directory quantisation %d bits", qbits)
	}
	n.id = NodeID(binary.LittleEndian.Uint32(buf[3:7]))
	count := int(binary.LittleEndian.Uint32(buf[7:11]))
	if count < 0 || count > math.MaxInt32 {
		return nil, fmt.Errorf("rtree: implausible v2 entry count %d", count)
	}
	off := nodeHeaderV2Bytes
	mbbLo := make(geom.Point, dims)
	mbbHi := make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		mbbLo[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for d := 0; d < dims; d++ {
		mbbHi[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}

	switch {
	case !n.leaf:
		want := off + count*dirEntryBytesV2(dims)
		if count > (len(buf)-off)/dirEntryBytesV2(dims) {
			return nil, fmt.Errorf("rtree: v2 directory page truncated: have %d bytes, want %d", len(buf), want)
		}
		n.boxes = make([]float64, count*2*dims)
		n.refs = make([]int64, count)
		// The page's grid coordinates become the node's SoA filter planes
		// verbatim (and the exactly-stored MBB its quantisation base): the
		// encoder computed them from the exact child MBBs, so they equal
		// what an in-memory tree's syncPlanes produces — requantising the
		// conservatively decoded rects instead would drift by up to one grid
		// cell and make pruning (and I/O counts) diverge between stores.
		pw := planeWords(count, false)
		n.qplanes = make([]uint64, 2*dims*pw)
		n.qmbb = make([]float64, 2*dims)
		copy(n.qmbb[:dims], mbbLo)
		copy(n.qmbb[dims:], mbbHi)
		for i := 0; i < count; i++ {
			r := n.rect(i, dims)
			for d := 0; d < dims; d++ {
				g := binary.LittleEndian.Uint16(buf[off:])
				setPlane(n.qplanes, pw, PlaneBits, d, i, false, g)
				r.Lo[d] = qdecode(mbbLo[d], mbbHi[d], uint32(g))
				off += 2
			}
			for d := 0; d < dims; d++ {
				g := binary.LittleEndian.Uint16(buf[off:])
				setPlane(n.qplanes, pw, PlaneBits, d, i, true, g)
				r.Hi[d] = qdecode(mbbLo[d], mbbHi[d], uint32(g))
				off += 2
			}
			n.refs[i] = int64(NodeID(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
		}
	case flags&flagV2RawLeaf != 0:
		want := off + count*EntryBytes(dims)
		if count > (len(buf)-off)/EntryBytes(dims) {
			return nil, fmt.Errorf("rtree: v2 raw leaf page truncated: have %d bytes, want %d", len(buf), want)
		}
		off = n.readSlots(buf, off, count, dims)
	default:
		// Delta/varint leaf stream: every entry needs at least one byte per
		// varint, bounding count before any allocation.
		if count > len(buf)-off {
			return nil, fmt.Errorf("rtree: v2 leaf page truncated: %d entries in %d bytes", count, len(buf)-off)
		}
		n.boxes = make([]float64, count*2*dims)
		n.refs = make([]int64, count)
		prevLo := make([]uint64, dims)
		for d := 0; d < dims; d++ {
			prevLo[d] = math.Float64bits(mbbLo[d])
		}
		prevObj := int64(0)
		for i := 0; i < count; i++ {
			r := n.rect(i, dims)
			for d := 0; d < dims; d++ {
				u, m := binary.Uvarint(buf[off:])
				if m <= 0 {
					return nil, errors.New("rtree: v2 leaf stream truncated")
				}
				off += m
				prevLo[d] += uint64(unzigzag(u) << shift)
				r.Lo[d] = math.Float64frombits(prevLo[d])
			}
			for d := 0; d < dims; d++ {
				u, m := binary.Uvarint(buf[off:])
				if m <= 0 {
					return nil, errors.New("rtree: v2 leaf stream truncated")
				}
				off += m
				r.Hi[d] = math.Float64frombits(prevLo[d] + uint64(unzigzag(u)<<shift))
			}
			u, m := binary.Uvarint(buf[off:])
			if m <= 0 {
				return nil, errors.New("rtree: v2 leaf stream truncated")
			}
			off += m
			prevObj += unzigzag(u)
			n.refs[i] = prevObj
		}
	}
	if n.leaf {
		// Leaf coordinates are lossless, so requantising reproduces exactly
		// the planes an in-memory tree computes for the same entries.
		// (Directory planes were adopted from the page above.)
		n.syncPlanes(dims)
	}
	n.encSize = int32(off)
	return n, nil
}

// encodeNodeCodec serialises a node with the given codec.
func encodeNodeCodec(n *node, dims int, codec PageCodec) ([]byte, error) {
	switch codec {
	case CodecV1:
		return encodeNode(n, dims), nil
	case CodecV2:
		return encodeNodeV2(n, dims)
	default:
		return nil, fmt.Errorf("rtree: unknown page codec %d", codec)
	}
}

// decodeNodeCodec parses a node page written with the given codec.
func decodeNodeCodec(buf []byte, dims int, codec PageCodec) (*node, error) {
	switch codec {
	case CodecV1:
		return decodeNode(buf, dims)
	case CodecV2:
		return decodeNodeV2(buf, dims)
	default:
		return nil, fmt.Errorf("rtree: unknown page codec %d", codec)
	}
}

// TranscodeNodePage re-encodes a single node page from one codec to another.
// The v1→v2 direction is exact for leaves and conservative for directories.
// The v2→v1 direction must undo the conservative expansion — v1 trees require
// every directory entry rect to equal its child's MBB exactly — so the caller
// passes childMBB resolving a child id to its exactly-stored MBB (every v2
// page header carries one; see NodePageMBB). A nil childMBB leaves decoded
// rects untouched, which is correct for every other direction. It is the
// per-page work unit of snapshot.Transcode, which streams a file through it
// without materialising the tree.
func TranscodeNodePage(buf []byte, dims int, from, to PageCodec, childMBB func(NodeID) (geom.Rect, bool)) ([]byte, error) {
	n, err := decodeNodeCodec(buf, dims, from)
	if err != nil {
		return nil, err
	}
	if childMBB != nil && !n.leaf {
		es := n.entries(dims)
		for i := range es {
			if r, ok := childMBB(es[i].Child); ok {
				es[i].Rect = r
			}
		}
		n.setEntries(es, dims)
	}
	return encodeNodeCodec(n, dims, to)
}

// NodePageMBB reads a v2 node page's id and exactly-stored MBB from its
// header, without decoding entries. snapshot.Transcode uses it to rebuild the
// child-MBB table a v2→v1 conversion needs to restore exact directory rects.
func NodePageMBB(buf []byte, dims int) (NodeID, geom.Rect, error) {
	if len(buf) < nodeHeaderV2Bytes+16*dims {
		return InvalidNode, geom.Rect{}, errors.New("rtree: v2 node page too short")
	}
	id := NodeID(binary.LittleEndian.Uint32(buf[3:7]))
	lo := make(geom.Point, dims)
	hi := make(geom.Point, dims)
	off := nodeHeaderV2Bytes
	for d := 0; d < dims; d++ {
		lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for d := 0; d < dims; d++ {
		hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return id, geom.Rect{Lo: lo, Hi: hi}, nil
}

// NodePageStats describes one decoded node page for inspection tools.
type NodePageStats struct {
	Leaf       bool
	RawLeaf    bool // leaf stored with the v2 raw fallback
	Level      int
	ID         NodeID
	Entries    int
	Bytes      int // exact encoded size
	QuantBits  int // bits per quantised directory coordinate (0 on leaves/v1)
	DeltaShift int // right-shift of the leaf coordinate deltas (v2 leaves)
}

// InspectNodePage decodes just enough of a node page to report its layout
// statistics (cbbinspect's per-level compression report).
func InspectNodePage(buf []byte, dims int, codec PageCodec) (NodePageStats, error) {
	n, err := decodeNodeCodec(buf, dims, codec)
	if err != nil {
		return NodePageStats{}, err
	}
	st := NodePageStats{
		Leaf:    n.leaf,
		Level:   int(n.level),
		ID:      n.id,
		Entries: n.count(),
		Bytes:   int(n.encSize),
	}
	if codec == CodecV2 {
		if n.leaf {
			st.RawLeaf = len(buf) > 0 && buf[0]&flagV2RawLeaf != 0
			if !st.RawLeaf && len(buf) > 2 {
				st.DeltaShift = int(buf[2])
			}
		} else {
			st.QuantBits = DirQuantBits
		}
	}
	return st, nil
}

// MaxEncodedNodeBytes returns the size of the largest node page the tree's
// last published version would produce under the given codec — the page-size
// discovery pass of the two-pass v2 snapshot write (v2 pages are
// variable-length, so the page size cannot be derived from MaxEntries alone,
// unlike PageBytesFor for v1). The pages are encoded on GOMAXPROCS workers,
// as Save encodes them, and dropped a window at a time.
func (t *Tree) MaxEncodedNodeBytes(codec PageCodec) (int, error) {
	if codec == CodecV1 {
		return PageBytesFor(t.cfg.MaxEntries, t.cfg.Dims), nil
	}
	most := 0
	err := t.cur.Load().encodeWalk(t.cfg.Dims, codec, func(_ *node, buf []byte) error {
		most = max(most, len(buf))
		return nil
	})
	return most, err
}
