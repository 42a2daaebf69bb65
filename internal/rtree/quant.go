package rtree

// This file implements the quantised structure-of-arrays (SoA) filter layer
// of the in-memory node representation: derived from the one exact store
// (node.boxes, flat float64), every node keeps per-dimension planes of grid
// coordinates relative to its own MBB, quantised conservatively outward with
// exactly the v2 directory codec's qlower/qupper (lower bounds round down,
// upper bounds round up on the same 16-bit grid). A directory node's planes
// hold those 16-bit coordinates; a leaf's hold them reduced to 8 bits (see
// below). The query hot path scans these planes instead of the float64
// store: per node, the intersection test becomes one branch-free pass per
// dimension ANDing a survivor bitmask — and because the planes are packed
// four 16-bit or eight 8-bit lanes to a uint64 word, each comparison
// instruction processes four or eight entries at once (SWAR), an 8x or 16x
// cut in memory traffic and loop iterations against the float64 store. Only
// surviving entries ever touch the exact rectangles: leaf survivors get one
// exact verification, directory survivors are recursed into directly (the
// decoded plane rect is a superset of the stored rect, so recursing off the
// conservative verdict is admissible by the same containment argument as the
// v2 on-disk format — a false positive costs one extra node visit, never a
// missed result).
//
// Correctness of the grid-domain test rests on monotonicity rather than on
// comparing decoded values: the query window is projected onto the node's
// grid with the SAME rounding functions the entry bounds got on the side of
// each comparison — the query's upper bound with qlower (the entry lower
// bounds' rounding) and the query's lower bound with qupper (the entry upper
// bounds' rounding). qlower and qupper are monotone in their argument, so
//
//	entry.lo <= query.hi  =>  qlower(entry.lo) <= qlower(query.hi)
//	query.lo <= entry.hi  =>  qupper(query.lo) <= qupper(entry.hi)
//
// and any exact intersection survives in grid domain. (Comparing a
// qlower-rounded value against a qupper-rounded one would NOT be safe: on a
// grid region where the decode function is flat, the two roundings can land
// on opposite ends of the plateau.) The same holds for a node whose boxes
// are themselves conservatively decoded grid rects (v2 directories): a grid
// value g with qdecode(g) <= x satisfies g <= qlower(x) by qlower's
// maximality, and symmetrically for qupper. A node whose MBB is degenerate
// in some dimension quantises every bound there to 0, which both roundings
// also assign to every query value — the dimension passes vacuously and the
// exact verify (leaves) or the child's own planes (directories) take over.
//
// A leaf's grid decides no descent — every leaf survivor is checked against
// its exact box — so leaves keep only the top eight bits of each coordinate:
// a lower bound g becomes leafLower(g) = g>>8 and an upper bound
// leafUpper(g) = min(255, ⌈g/256⌉), and the query's two grid coordinates are
// reduced the same way on the same side, its upper bound with leafLower and
// its lower bound with leafUpper. Both maps are monotone, so their
// composition with qlower and qupper is too, and the two implications above
// hold for the composed roundings word for word: the 8-bit test never misses
// either. A coarser leaf grid costs only the near misses it admits — one
// more exact check each — and halves the words a leaf scan reads and the
// heap its planes take.
//
// Plane provenance matters for cross-store equivalence: an in-memory node
// quantises its exact entry rects, and a node faulted in from a compressed
// (v2) snapshot page adopts the grid coordinates stored in the page verbatim
// (see decodeNodeV2) — the same pure function of the same exact inputs,
// evaluated at encode time. Requantising the conservatively decoded rects
// instead would drift by up to one grid cell (double quantisation), making
// pruning decisions — and with them node visit counts — diverge between
// stores. With verbatim adoption, every store scans identical planes and the
// equivalence matrices stay bit-identical across mem/file/v2/mmap. Leaf
// pages hold exact boxes in every format, so a leaf's planes are computed at
// fault-in like an in-memory leaf's.
//
// The same grid carries a directory node's copy of its children's clip
// points, so that Algorithm 2 is decided there too; the last section of this
// file extends the rounding argument to it.

import (
	"math"
	"slices"

	"cbb/internal/core"
	"cbb/internal/geom"
)

// PlaneBits is the width of one directory plane coordinate. It is fixed to
// the v2 directory grid (DirQuantBits) so that compressed snapshot pages can
// populate the planes verbatim from their stored grid coordinates, with no
// requantisation on the fault-in path and bit-identical pruning across
// stores. The measured slack of the 16-bit grid (see cbbinspect's
// quant-slack report) is far below one part in 10^3 of a node's extent,
// which a conservative filter absorbs as the occasional extra exact check.
const PlaneBits = DirQuantBits

// LeafPlaneBits is the width of one leaf plane coordinate: the top eight
// bits of the node's 16-bit grid coordinate, rounded outward (see the file
// comment).
const LeafPlaneBits = 8

const (
	// laneH has the top bit of each 16-bit lane set — the SWAR sign mask.
	laneH = 0x8000800080008000
	// lane1 broadcasts a 16-bit value to all four lanes by multiplication.
	lane1 = 0x0001000100010001
	// nibMul gathers the four lane-top bits (at positions 0/16/32/48 after
	// the >>15) into bits 48..51: lane k's bit travels 48-15k places, and no
	// two partial products collide, so one multiply replaces four
	// shift-mask-or steps.
	nibMul = 1<<48 | 1<<33 | 1<<18 | 1<<3
	// byteH, byte1 and byteMul are the same for eight 8-bit lanes: byteMul
	// moves lane k's top bit (at 8k after the >>7) by 56-7k places into bit
	// 56+k, and the 64 partial products all land on different bits, so no
	// carry reaches the top byte.
	byteH   = 0x8080808080808080
	byte1   = 0x0101010101010101
	byteMul = 0x0102040810204080
)

// planeBits is the lane width of a leaf's or a directory node's planes.
func planeBits(leaf bool) int {
	if leaf {
		return LeafPlaneBits
	}
	return PlaneBits
}

// planeWords is the length of one plane (one dimension, one bound) of a
// node of the given kind in packed uint64 words.
func planeWords(count int, leaf bool) int {
	lanes := 64 / planeBits(leaf)
	return (count + lanes - 1) / lanes
}

// leafLower and leafUpper reduce a 16-bit grid coordinate to the leaf grid:
// a lower bound down to its 256-cell block, an upper bound up to the next
// block boundary, where the grid's top (256) is kept as 255.
func leafLower(g uint16) uint16 { return g >> 8 }
func leafUpper(g uint16) uint16 { return uint16(min(255, (uint32(g)+255)>>8)) }

// planeBytes is the resident size of the node's quantised filter layer: the
// packed SoA planes plus the MBB they are quantised against. It is charged
// to buffer pools on every access alongside the encoded page size, and
// reported by Stats/NodeInfo.
func (n *node) planeBytes() int { return len(n.qplanes)*8 + len(n.qmbb)*8 }

// hasPlanes reports whether the node carries a filter layer consistent with
// its entry count — true for every node this package builds or decodes.
// Range search skips a node without one (only freed-slot placeholders lack
// it); the nearest-neighbour search only skips its grid prefilter.
func (n *node) hasPlanes(dims int) bool {
	return len(n.qplanes) == 2*dims*planeWords(n.count(), n.leaf) && len(n.qmbb) == 2*dims
}

// planeAt reads one quantised coordinate back out of the packed planes:
// entry i's lower (hi=false) or upper (hi=true) bound in dimension d, on the
// leaf grid for a leaf. Validation and the v2 encoder use it; the scan
// kernels never unpack.
func (n *node) planeAt(dims, d, i int, hi bool) uint16 {
	bits := planeBits(n.leaf)
	w := planeWords(n.count(), n.leaf)
	base := 2 * d * w
	if hi {
		base += w
	}
	lanes := 64 / bits
	return uint16(n.qplanes[base+i/lanes] >> (i % lanes * bits) & (1<<bits - 1))
}

// setPlane writes one coordinate into planes of w words each, packed bits
// wide.
func setPlane(planes []uint64, w, bits, d, i int, hi bool, g uint16) {
	base := 2 * d * w
	if hi {
		base += w
	}
	lanes := 64 / bits
	shift := i % lanes * bits
	word := &planes[base+i/lanes]
	*word = *word&^(uint64(1<<bits-1)<<shift) | uint64(g)<<shift
}

// quantiseSlot writes slot i's bounds lo and hi in dimension d, quantised
// onto g, into the node's planes of w words each: reduced to the leaf grid
// on a leaf.
func (n *node) quantiseSlot(w, d, i int, g grid, lo, hi float64) {
	gl, gh, bits := g.lower(lo), g.upper(hi), PlaneBits
	if n.leaf {
		gl, gh, bits = leafLower(gl), leafUpper(gh), LeafPlaneBits
	}
	setPlane(n.qplanes, w, bits, d, i, false, gl)
	setPlane(n.qplanes, w, bits, d, i, true, gh)
}

// syncPlanes rebuilds the quantised SoA planes from boxes:
// qmbb gets the node MBB (Lo extents then Hi extents, like boxes), and each
// dimension's lo/hi plane gets the entry bounds quantised conservatively
// outward onto that MBB's grid (quantiseSlot). The plane layout is
// dimension-major and packed L = 64/planeBits lanes per word (four on a
// directory node, eight on a leaf): with W = planeWords(count), words
// [2dW, (2d+1)W) are dimension d's lower-bound plane and [(2d+1)W, (2d+2)W)
// its upper-bound plane, entry i in lane i%L of word i/L — so the kernel
// streams contiguous words per dimension. Padding lanes are zero; their mask
// bits are cleared by the kernels. The v2 fault-in path skips it for
// directory nodes and installs the page's stored grid coordinates instead.
// qmbb is a fresh array every time (the rule boxes follows): NodeInfo.MBB
// views it. The planes' capacity follows refs': room for the slots a write
// reserved, and no more (see node's exact-size rule).
func (n *node) syncPlanes(dims int) {
	count := n.count()
	w := planeWords(count, n.leaf)
	need := 2 * dims * w
	if room := n.planeRoom(dims); cap(n.qplanes) != room {
		n.qplanes = make([]uint64, need, room)
	} else {
		n.qplanes = n.qplanes[:need]
		clear(n.qplanes)
	}
	n.qmbb = boxesMBB(n.boxes, dims)
	for d := 0; d < dims; d++ {
		g := newGrid(n.qmbb[d], n.qmbb[dims+d])
		off := 0
		for i := 0; i < count; i++ {
			n.quantiseSlot(w, d, i, g, n.boxes[off+d], n.boxes[off+dims+d])
			off += 2 * dims
		}
	}
}

// quantiseQuery projects the query window onto the node's grid with the
// conservative rounding pairing described above: qg[2d] is the query's lower
// bound rounded UP with qupper (compared against entry upper bounds, which
// qupper rounded up) and qg[2d+1] the upper bound rounded DOWN with qlower
// (compared against entry lower bounds). Query coordinates outside the node
// MBB clamp to the grid ends, which only widens the admitted set. The leaf
// kernel reduces the projection to the leaf grid itself.
func quantiseQuery(qmbb []float64, dims int, qlo, qhi []float64, qg *[2 * geom.MaxDims]uint16) {
	for d := 0; d < dims; d++ {
		g := newGrid(qmbb[d], qmbb[dims+d])
		l, lok := g.certain(qlo[d])
		h, hok := g.certain(qhi[d])
		if lok && hok { // g.upper and g.lower without the calls
			qg[2*d], qg[2*d+1] = uint16(l+1), uint16(h)
			continue
		}
		qg[2*d] = g.upper(qlo[d])
		qg[2*d+1] = g.lower(qhi[d])
	}
}

// scanPlanes fills mask with the survivor bitmask of a node's entries against
// the query's grid coordinates qg (quantiseQuery's), with the kernel of the
// node's kind: leafScan on a leaf's planes, quantScan on a directory's.
func scanPlanes(leaf bool, planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16, mask []uint64) {
	if leaf {
		leafScan(planes, count, dims, qg, mask)
	} else {
		quantScan(planes, count, dims, qg, mask)
	}
}

// swarGE compares the four unsigned 16-bit lanes of x with one constant c
// broadcast to all lanes: the lane top of the result is set exactly where x's
// lane >= c; the other bits are garbage, masked off with laneH once per word
// after all of a word's comparisons are ANDed together (AND never carries, so
// garbage cannot reach a lane top). Forcing x's lane tops on and c's off
// (cL = c&^laneH) confines each lane's borrow to the lane, so the lane top of
// the difference t says whether x's low 15 bits reach c's; the verdict is
// majority(x's top, not c's top, t's top). c's top is the same in every lane:
// with s all-ones where it is clear and zero where it is set, that majority
// is x|t or x&t, which is ((t^s)&(x^s))^s either way.
func swarGE(x, cL, s uint64) uint64 { return (((x|laneH)-cL)^s)&(x^s) ^ s }

// swarGE8 is swarGE on eight 8-bit lanes (cL = c&^byteH).
func swarGE8(x, cL, s uint64) uint64 { return (((x|byteH)-cL)^s)&(x^s) ^ s }

// laneQuery is one dimension of the quantised query window as a kernel's
// word loop needs it: all that depends on the query alone, computed once per
// node instead of once per word (the compiler hoists none of it). An entry
// passes the dimension when lo <= qh and hi >= ql; the first is taken as
// ^lo >= ^qh, exact on unsigned lanes, so both are swarGE against a constant.
type laneQuery struct {
	nhL, nhS uint64 // ^qh broadcast: the lane tops cleared, and swarGE's s
	lL, lS   uint64 // the same for ql
}

func newLaneQuery(ql, qh uint16) laneQuery {
	l, nh := uint64(ql)*lane1, uint64(^qh)*lane1
	return laneQuery{nhL: nh &^ laneH, nhS: nh>>15&1 - 1, lL: l &^ laneH, lS: l>>15&1 - 1}
}

// newLeafQuery is newLaneQuery on the leaf grid, for the query's 16-bit grid
// coordinates ql and qh: ql is reduced as entry upper bounds are and qh as
// entry lower bounds are.
func newLeafQuery(ql, qh uint16) laneQuery {
	l, nh := uint64(leafUpper(ql))*byte1, uint64(255-leafLower(qh))*byte1
	return laneQuery{nhL: nh &^ byteH, nhS: nh>>7&1 - 1, lL: l &^ byteH, lS: l>>7&1 - 1}
}

// admits returns a word whose lane tops are set where the entry bounds lo, hi
// (one plane word each) overlap the query in this dimension.
func (q laneQuery) admits(lo, hi uint64) uint64 {
	return swarGE(^lo, q.nhL, q.nhS) & swarGE(hi, q.lL, q.lS)
}

// admits8 is admits on a leaf's 8-bit lanes (a newLeafQuery).
func (q laneQuery) admits8(lo, hi uint64) uint64 {
	return swarGE8(^lo, q.nhL, q.nhS) & swarGE8(hi, q.lL, q.lS)
}

// nibble gathers the four lane tops of m into the mask nibble of plane word
// wi (one multiply, see nibMul), positioned within its 64-entry mask word.
func nibble(m uint64, wi int) uint64 {
	return ((m & laneH >> 15) * nibMul >> 48) << (uint(wi&15) << 2)
}

// octet gathers the eight lane tops of m into the mask byte of leaf plane
// word wi (one multiply, see byteMul), positioned within its mask word.
func octet(m uint64, wi int) uint64 {
	return ((m & byteH >> 7) * byteMul >> 56) << (uint(wi&7) << 3)
}

// quantScan fills mask with the survivor bitmask of a directory node's
// entries against the quantised query window: bit i of mask[i/64] is set iff
// the grid-domain test admits entry i. One pass over the packed planes, four
// entries per comparison: per word and dimension, two SWAR compares AND into
// a lane-top accumulator, and one multiply gathers the four verdict bits
// into the mask nibble; a mask word's sixteen nibbles are collected in a
// register and stored once (OR-ing each into memory chained every word to the
// previous word's store). The admitted set is a superset of the exact
// intersection set (see the file comment); it never misses a true hit.
// Padding-lane bits beyond count and mask words beyond the node's are cleared.
//
// Two and three dimensions are unrolled, with the per-dimension planes
// resliced to one length so the word loop carries no bounds checks. All
// branches compute the identical function.
func quantScan(planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16, mask []uint64) {
	w := planeWords(count, false)
	words := (w + 15) >> 4
	clear(mask[words:])
	if w == 0 {
		return
	}
	var acc uint64
	switch dims {
	case 2:
		lo0, hi0, lo1, hi1 := planes[:w], planes[w:][:w], planes[2*w:][:w], planes[3*w:][:w]
		q0, q1 := newLaneQuery(qg[0], qg[1]), newLaneQuery(qg[2], qg[3])
		for wi, l0 := range lo0 {
			m := q0.admits(l0, hi0[wi]) & q1.admits(lo1[wi], hi1[wi])
			if acc |= nibble(m, wi); wi&15 == 15 {
				mask[wi>>4], acc = acc, 0
			}
		}
	case 3:
		lo0, hi0, lo1, hi1 := planes[:w], planes[w:][:w], planes[2*w:][:w], planes[3*w:][:w]
		lo2, hi2 := planes[4*w:][:w], planes[5*w:][:w]
		q0, q1, q2 := newLaneQuery(qg[0], qg[1]), newLaneQuery(qg[2], qg[3]), newLaneQuery(qg[4], qg[5])
		for wi, l0 := range lo0 {
			m := q0.admits(l0, hi0[wi]) & q1.admits(lo1[wi], hi1[wi]) & q2.admits(lo2[wi], hi2[wi])
			if acc |= nibble(m, wi); wi&15 == 15 {
				mask[wi>>4], acc = acc, 0
			}
		}
	default:
		var qs [geom.MaxDims]laneQuery
		for d := 0; d < dims; d++ {
			qs[d] = newLaneQuery(qg[2*d], qg[2*d+1])
		}
		for wi := 0; wi < w; wi++ {
			m := ^uint64(0)
			for d := 0; d < dims; d++ {
				m &= qs[d].admits(planes[2*d*w+wi], planes[(2*d+1)*w+wi])
			}
			if acc |= nibble(m, wi); wi&15 == 15 {
				mask[wi>>4], acc = acc, 0
			}
		}
	}
	if w&15 != 0 {
		mask[words-1] = acc
	}
	if r := count & 63; r != 0 {
		mask[words-1] &= 1<<uint(r) - 1
	}
}

// leafScan is quantScan on a leaf's 8-bit planes, eight entries per
// comparison: the query's grid coordinates are reduced to the leaf grid
// (newLeafQuery), one multiply gathers a word's eight verdict bits into a
// mask byte, and eight plane words fill a mask word.
func leafScan(planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16, mask []uint64) {
	w := planeWords(count, true)
	words := (w + 7) >> 3
	clear(mask[words:])
	if w == 0 {
		return
	}
	var acc uint64
	switch dims {
	case 2:
		lo0, hi0, lo1, hi1 := planes[:w], planes[w:][:w], planes[2*w:][:w], planes[3*w:][:w]
		q0, q1 := newLeafQuery(qg[0], qg[1]), newLeafQuery(qg[2], qg[3])
		for wi, l0 := range lo0 {
			m := q0.admits8(l0, hi0[wi]) & q1.admits8(lo1[wi], hi1[wi])
			if acc |= octet(m, wi); wi&7 == 7 {
				mask[wi>>3], acc = acc, 0
			}
		}
	case 3:
		lo0, hi0, lo1, hi1 := planes[:w], planes[w:][:w], planes[2*w:][:w], planes[3*w:][:w]
		lo2, hi2 := planes[4*w:][:w], planes[5*w:][:w]
		q0, q1, q2 := newLeafQuery(qg[0], qg[1]), newLeafQuery(qg[2], qg[3]), newLeafQuery(qg[4], qg[5])
		for wi, l0 := range lo0 {
			m := q0.admits8(l0, hi0[wi]) & q1.admits8(lo1[wi], hi1[wi]) & q2.admits8(lo2[wi], hi2[wi])
			if acc |= octet(m, wi); wi&7 == 7 {
				mask[wi>>3], acc = acc, 0
			}
		}
	default:
		var qs [geom.MaxDims]laneQuery
		for d := 0; d < dims; d++ {
			qs[d] = newLeafQuery(qg[2*d], qg[2*d+1])
		}
		for wi := 0; wi < w; wi++ {
			m := ^uint64(0)
			for d := 0; d < dims; d++ {
				m &= qs[d].admits8(planes[2*d*w+wi], planes[(2*d+1)*w+wi])
			}
			if acc |= octet(m, wi); wi&7 == 7 {
				mask[wi>>3], acc = acc, 0
			}
		}
	}
	if w&7 != 0 {
		mask[words-1] = acc
	}
	if r := count & 63; r != 0 {
		mask[words-1] &= 1<<uint(r) - 1
	}
}

// syncSlots is syncPlanes for a change confined to the given slots — appended,
// or their rectangles replaced — that left the node's MBB where it was: the
// other slots' grid coordinates cannot have changed, so only these slots' are
// written, into planes first widened by one word each when the appends opened
// one. It changes nothing and reports false when the MBB of boxes differs from
// qmbb in any bit, or the planes were laid out for neither the node's word
// count nor one word fewer: syncPlanes must rebuild them then.
func (n *node) syncSlots(dims int, slots []int) bool {
	var buf [2 * geom.MaxDims]float64
	mbb := buf[:2*dims]
	foldMBB(mbb, n.boxes, dims)
	if len(n.qmbb) != len(mbb) {
		return false
	}
	for k, v := range mbb {
		if math.Float64bits(v) != math.Float64bits(n.qmbb[k]) {
			return false
		}
	}
	w := planeWords(n.count(), n.leaf)
	switch len(n.qplanes) {
	case 2 * dims * w:
	case 2 * dims * (w - 1):
		n.widenPlanes(dims, w)
	default:
		return false
	}
	for _, i := range slots {
		box := n.boxes[i*2*dims:][:2*dims]
		for d := 0; d < dims; d++ {
			n.quantiseSlot(w, d, i, newGrid(n.qmbb[d], n.qmbb[dims+d]), box[d], box[dims+d])
		}
	}
	return true
}

// planeRoom is the plane capacity that holds every slot refs has room for.
func (n *node) planeRoom(dims int) int { return 2 * dims * planeWords(cap(n.refs), n.leaf) }

// widenPlanes re-lays planes of w-1 words each out as planes of w words, the
// new last word of each zero — in place when the capacity allows, moving the
// last plane first so no plane is overwritten before it has moved.
func (n *node) widenPlanes(dims, w int) {
	old, need := n.qplanes, 2*dims*w
	planes := old[:cap(old)]
	if len(planes) < need {
		planes = make([]uint64, n.planeRoom(dims))
	}
	planes = planes[:need]
	for k := 2*dims - 1; k >= 0; k-- {
		copy(planes[k*w:k*w+w-1], old[k*(w-1):(k+1)*(w-1)])
		planes[k*w+w-1] = 0
	}
	n.qplanes = planes
}

// --- clip admission on the grid ------------------------------------------------
//
// A directory node carries a compact copy of its children's clip points
// (clipGrid), quantised onto the node's own grid, the one quantiseQuery has
// just projected the query onto: Algorithm 2 then decides most children
// in integer arithmetic, without the exact record, which sits two dependent
// loads away in the node directory.
//
// A clip point c' kills a query in dimension d when the query's probe
// coordinate lies strictly beyond c' toward the clipped corner: q.Hi < c with
// mask bit d clear, q.Lo > c with it set (core.Sel). The copy keeps c rounded
// corner-ward — a clear bit's c as L = qlower(c), a set bit's as U = qupper(c),
// stored as its complement dirQMax−U so that both read "probe < stored" —
// and the query enters as its grid coordinates gh = qlower(q.Hi) and
// gl = qupper(q.Lo), the set-bit probe complemented alike. Per dimension, with
// qdecode monotone, qlower maximal and qupper minimal on a range with hi > lo,
// and lo ≤ c ≤ hi:
//
//	gh < L  ⇒  q.Hi < qdecode(gh+1) ≤ qdecode(L) ≤ c       certainly dead
//	gh > L  ⇒  c < qdecode(L+1) ≤ qdecode(gh) ≤ q.Hi       certainly alive
//	gl > U  ⇒  c ≤ qdecode(U) ≤ qdecode(gl−1) < q.Lo       certainly dead
//	gl < U  ⇒  q.Lo ≤ qdecode(gl) ≤ qdecode(U−1) < c       certainly alive
//
// where the alive lines need qdecode(gh) ≤ q.Hi and q.Lo ≤ qdecode(gl), which
// hold once the child's box — inside the node's MBB — meets the query: the
// exact boxHits runs first, as it always has. Equality is the one-cell band in
// which the grid cannot tell. A degenerate dimension (hi = lo) puts every
// value on cell 0, so it always sits in the band, and no claim is made. A
// point is certainly dead when it is dead in every dimension, and certainly
// alive when it is alive in one; a child is dead when one point is certainly
// dead, alive when every point is certainly alive, and otherwise — the band —
// Record.Dead decides from the exact record. The verdict is Record.Dead's in
// every case, so visit order and node accesses are the exact test's.
//
// A packed point is one uint64: dimension d's stored value in the 20-bit lane
// at bit 20d with the lane's top bit (clipGuard) set, and the corner mask at
// bit 60. Subtracting a probe word of per-lane values below the guard leaves a
// lane's guard set exactly where stored ≥ probe, and no borrow crosses a lane;
// so with the probe p "maybe dead" is every guard surviving w − p and
// "certainly dead" every guard surviving w − p − 1 per lane.

const (
	clipMaxDims   = 3  // the dimensionalities a clip copy serves; beyond, records are read
	clipLaneBits  = 20 // bits per dimension of a packed clip point
	clipMaskShift = clipMaxDims * clipLaneBits
	clipGuard     = 1 << (clipLaneBits - 1)
)

// clipGrid is a directory node's compact copy of its children's clip points:
// child i's are pts[end[i-1]:end[i]] (from 0 for i = 0); a child without clip
// points has none. It is derived like the planes, never written once its
// node is published, and its node's page does not hold it.
type clipGrid struct {
	end []uint32
	pts []uint64
}

// points returns child i's packed clip points.
func (c *clipGrid) points(i int) []uint64 {
	start := uint32(0)
	if i > 0 {
		start = c.end[i-1]
	}
	return c.pts[start:c.end[i]]
}

// sameRecord reports whether a and b are the same record: records are never
// written once built, so the same backing array means the same clip points.
func sameRecord(a, b core.Record) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// buildClips returns the clip copy of directory node n against its children's
// records as rec gives them, or nil when n gets none: a leaf, a node without
// planes, more than clipMaxDims dimensions, or a clip coordinate outside n's
// MBB or NaN (which no consistent tree has; the exact records then decide).
// old, when not nil, is a node of the same id whose copy matches the records
// oldRec gives: a child in the same slot with the same record, on the same
// grid, takes its packed points from there instead of being quantised again,
// so a write re-quantises only the children it changed.
func (n *node) buildClips(dims int, rec func(NodeID) core.Record, old *node, oldRec func(NodeID) core.Record) *clipGrid {
	if n.leaf || dims > clipMaxDims || !n.hasPlanes(dims) {
		return nil
	}
	var grids [clipMaxDims]grid
	for d := 0; d < dims; d++ {
		grids[d] = newGrid(n.qmbb[d], n.qmbb[dims+d])
	}
	if old != nil && (old.clips == nil || !slices.Equal(old.qmbb, n.qmbb)) {
		old = nil
	}
	total := 0
	for i := range n.refs {
		total += rec(n.child(i)).Len(dims)
	}
	c := &clipGrid{end: make([]uint32, n.count()), pts: make([]uint64, 0, total)}
	for i := range n.refs {
		child, r := n.child(i), rec(n.child(i))
		if old != nil && i < old.count() && old.child(i) == child && sameRecord(r, oldRec(child)) {
			c.pts = append(c.pts, old.clips.points(i)...)
			c.end[i] = uint32(len(c.pts))
			continue
		}
		for ; len(r) > dims; r = r[dims+1:] {
			m := math.Float64bits(r[0])
			w := m << clipMaskShift
			for d, x := range r[1 : dims+1] {
				g := grids[d]
				var v uint16
				if m>>d&1 == 0 {
					v = g.lower(x)
				} else {
					x = -x // Record reflects a set bit's coordinate
					v = dirQMax - g.upper(x)
				}
				if !(x >= g.lo && x <= g.hi) {
					return nil
				}
				w |= (uint64(v) | clipGuard) << (d * clipLaneBits)
			}
			c.pts = append(c.pts, w)
		}
		c.end[i] = uint32(len(c.pts))
	}
	return c
}

// clipProbe is the query laid out for packed clip points on one node's grid:
// per corner mask, the probe word of "maybe dead" (ones added gives "certainly
// dead"), and the guards of the node's dimensions.
type clipProbe struct {
	at     [1 << clipMaxDims]uint64
	guards uint64
	ones   uint64
}

// set lays out the query grid coordinates qg (quantiseQuery's) for dims ≤
// clipMaxDims dimensions: the probe of mask m takes dimension d's gh where
// bit d is clear and its complemented gl where it is set, so each mask's word
// is its predecessor's with one lane swapped.
func (p *clipProbe) set(qg *[2 * geom.MaxDims]uint16, dims int) {
	var swap [clipMaxDims]uint64
	p.guards, p.ones, p.at[0] = 0, 0, 0
	for d := 0; d < dims; d++ {
		shift := d * clipLaneBits
		gh := uint64(qg[2*d+1]) << shift
		p.guards |= clipGuard << shift
		p.ones |= 1 << shift
		swap[d] = (dirQMax-uint64(qg[2*d]))<<shift - gh // gl, complemented, in gh's stead
		p.at[0] += gh
	}
	for d := 0; d < dims; d++ {
		for m := 0; m < 1<<d; m++ {
			p.at[m|1<<d] = p.at[m] + swap[d]
		}
	}
}

// Clip admission verdicts.
const (
	clipBand  = iota // the grid cannot tell: Record.Dead decides
	clipAlive        // no clip point kills the query
	clipDead         // some clip point kills the query
)

// verdict returns Algorithm 2's answer for one child's packed points, or
// clipBand. The child's box must meet the query (see the section comment).
func (p *clipProbe) verdict(pts []uint64) int {
	maybe := false
	for _, w := range pts {
		d := w - p.at[w>>clipMaskShift&(1<<clipMaxDims-1)]
		if (d-p.ones)&p.guards == p.guards {
			return clipDead
		}
		maybe = maybe || d&p.guards == p.guards
	}
	if maybe {
		return clipBand
	}
	return clipAlive
}
