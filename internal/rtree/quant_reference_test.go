package rtree

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"cbb/internal/geom"
)

// refSwarGE and refQuantScan are the scan kernel as it stood before the
// query-side terms were hoisted and the mask nibbles collected in a register,
// kept verbatim as the reference the live kernel is compared with.
func refSwarGE(x, y uint64) uint64 {
	t := (x | laneH) - (y &^ laneH)
	xh := x & laneH
	yh := y & laneH
	return (xh &^ yh) | (^(xh ^ yh) & t & laneH)
}

func refQuantScan(planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16, mask []uint64) {
	w := planeWords(count)
	for i := range mask {
		mask[i] = 0
	}
	if w == 0 {
		return
	}
	switch dims {
	case 1:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		for wi := 0; wi < w; wi++ {
			m := refSwarGE(qh0, lo0[wi]) & refSwarGE(hi0[wi], ql0)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	case 2:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		lo1, hi1 := planes[2*w:3*w:3*w], planes[3*w:4*w:4*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		ql1, qh1 := uint64(qg[2])*lane1, uint64(qg[3])*lane1
		for wi := 0; wi < w; wi++ {
			m := refSwarGE(qh0, lo0[wi]) & refSwarGE(hi0[wi], ql0)
			m &= refSwarGE(qh1, lo1[wi]) & refSwarGE(hi1[wi], ql1)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	case 3:
		lo0, hi0 := planes[0:w:w], planes[w:2*w:2*w]
		lo1, hi1 := planes[2*w:3*w:3*w], planes[3*w:4*w:4*w]
		lo2, hi2 := planes[4*w:5*w:5*w], planes[5*w:6*w:6*w]
		ql0, qh0 := uint64(qg[0])*lane1, uint64(qg[1])*lane1
		ql1, qh1 := uint64(qg[2])*lane1, uint64(qg[3])*lane1
		ql2, qh2 := uint64(qg[4])*lane1, uint64(qg[5])*lane1
		for wi := 0; wi < w; wi++ {
			m := refSwarGE(qh0, lo0[wi]) & refSwarGE(hi0[wi], ql0)
			m &= refSwarGE(qh1, lo1[wi]) & refSwarGE(hi1[wi], ql1)
			m &= refSwarGE(qh2, lo2[wi]) & refSwarGE(hi2[wi], ql2)
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	default:
		var cql, cqh [geom.MaxDims]uint64
		for d := 0; d < dims; d++ {
			cql[d] = uint64(qg[2*d]) * lane1
			cqh[d] = uint64(qg[2*d+1]) * lane1
		}
		for wi := 0; wi < w; wi++ {
			m := ^uint64(0)
			for d := 0; d < dims; d++ {
				lo := planes[2*d*w+wi]
				hi := planes[(2*d+1)*w+wi]
				m &= refSwarGE(cqh[d], lo) & refSwarGE(hi, cql[d])
			}
			mask[wi>>4] |= (((m >> 15) * nibMul) >> 48 & 0xF) << ((wi & 15) << 2)
		}
	}
	if r := count & 63; r != 0 {
		mask[len(mask)-1] &= 1<<uint(r) - 1
	}
}

// laneEdges are the 16-bit values where an unsigned SWAR compare can go
// wrong: the ends of the range and both sides of the lane-top bit.
var laneEdges = [...]uint16{0, 1, 0x7FFF, 0x8000, 0xFFFF}

// scanBothKernels runs the live and the reference kernel over the same
// planes and query and fails on the first differing mask word. The live
// kernel gets a dirty, over-long mask: it must overwrite its own words and
// clear the rest.
func scanBothKernels(t testing.TB, planes []uint64, count, dims int, qg *[2 * geom.MaxDims]uint16) {
	t.Helper()
	words := (count + 63) >> 6
	want := make([]uint64, words)
	refQuantScan(planes, count, dims, qg, want)
	want = append(want, 0)
	got := make([]uint64, words+1)
	for i := range got {
		got[i] = 0xDEADBEEFDEADBEEF
	}
	quantScan(planes, count, dims, qg, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dims %d count %d: mask word %d is %#x, reference %#x (query %v)", dims, count, i, got[i], want[i], qg[:2*dims])
		}
	}
}

// swarGE against a broadcast constant is the old two-operand compare, and
// the complemented form laneQuery uses for lo <= qh is the old compare with
// the operands swapped.
func TestSwarGEMatchesReference(t *testing.T) {
	check := func(x uint64, c uint16) {
		cc := uint64(c) * lane1
		if got, want := swarGE(x, cc&^laneH, cc>>15&1-1)&laneH, refSwarGE(x, cc); got != want {
			t.Fatalf("swarGE(%#x, %#x) = %#x, reference %#x", x, c, got, want)
		}
		q := newLaneQuery(c, c)
		if got, want := q.admits(x, x)&laneH, refSwarGE(cc, x)&refSwarGE(x, cc); got != want {
			t.Fatalf("admits(%#x) against [%#x, %#x] = %#x, reference %#x", x, c, c, got, want)
		}
	}
	for _, a := range laneEdges {
		for _, b := range laneEdges {
			for _, c := range laneEdges {
				// Neighbouring lanes hold other edge values, so a borrow or a
				// stray bit crossing a lane boundary shows.
				check(uint64(a)|uint64(c)<<16|uint64(b)<<32|uint64(a)<<48, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		check(rng.Uint64(), uint16(rng.Uint32()))
	}
}

// The hoisted kernel is the old kernel: dims 1–5 (three unrolled branches
// and the general one), every count from an empty node over partial last
// plane and mask words to more than four mask words, lanes and query bounds
// drawn from the edge values and from the whole range.
func TestQuantScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	lane := func(edgy bool) uint16 {
		if edgy {
			return laneEdges[rng.Intn(len(laneEdges))]
		}
		return uint16(rng.Uint32())
	}
	for dims := 1; dims <= 5; dims++ {
		for count := 0; count <= 260; count++ {
			w := planeWords(count)
			planes := make([]uint64, 2*dims*w)
			for pass := 0; pass < 6; pass++ {
				edgy := pass%2 == 0
				clear(planes)
				for d := 0; d < dims; d++ {
					for i := 0; i < count; i++ {
						setPlane(planes, w, d, i, false, lane(edgy))
						setPlane(planes, w, d, i, true, lane(edgy))
					}
				}
				var qg [2 * geom.MaxDims]uint16
				for d := 0; d < 2*dims; d++ {
					qg[d] = lane(pass < 4)
				}
				scanBothKernels(t, planes, count, dims, &qg)
			}
		}
	}
}

// FuzzQuantScanMatchesReference feeds both kernels arbitrary planes and
// query bounds.
func FuzzQuantScanMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint16(37), []byte{0, 0x80, 0xFF, 0x7F, 1, 0, 0xFF, 0xFF})
	f.Add(uint8(3), uint16(260), []byte{0xFF, 0x7F, 0x00, 0x80})
	f.Add(uint8(5), uint16(64), []byte{})
	f.Fuzz(func(t *testing.T, dimsSeed uint8, countSeed uint16, data []byte) {
		dims := int(dimsSeed)%5 + 1
		count := int(countSeed) % 300
		var qg [2 * geom.MaxDims]uint16
		for d := 0; d < 2*dims && len(data) >= 2; d++ {
			qg[d] = binary.LittleEndian.Uint16(data)
			data = data[2:]
		}
		w := planeWords(count)
		planes := make([]uint64, 2*dims*w)
		for i := 0; i < len(planes)*planeLanes && len(data) >= 2; i++ {
			// Padding lanes stay zero, as syncPlanes leaves them.
			if i%(w*planeLanes) < count {
				planes[i/planeLanes] |= uint64(binary.LittleEndian.Uint16(data)) << (i % planeLanes * PlaneBits)
			}
			data = data[2:]
		}
		scanBothKernels(t, planes, count, dims, &qg)
	})
}

func BenchmarkQuantScan(b *testing.B) {
	for _, dims := range []int{2, 3} {
		b.Run(map[int]string{2: "dims2", 3: "dims3"}[dims], func(b *testing.B) {
			// One full node of the page-derived fan-out per scan, 64 nodes
			// and 64 query windows in rotation.
			const count, nodes = 100, 64
			rng := rand.New(rand.NewSource(3))
			w := planeWords(count)
			planes := make([][]uint64, nodes)
			for n := range planes {
				planes[n] = make([]uint64, 2*dims*w)
				for d := 0; d < dims; d++ {
					for i := 0; i < count; i++ {
						lo := uint16(rng.Intn(0xF000))
						setPlane(planes[n], w, d, i, false, lo)
						setPlane(planes[n], w, d, i, true, lo+uint16(rng.Intn(0x0FFF)))
					}
				}
			}
			var qgs [nodes][2 * geom.MaxDims]uint16
			for n := range qgs {
				for d := 0; d < dims; d++ {
					lo := uint16(rng.Intn(0xC000))
					qgs[n][2*d], qgs[n][2*d+1] = lo, lo+0x3000
				}
			}
			var mask [2]uint64
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantScan(planes[i%nodes], count, dims, &qgs[i%nodes], mask[:])
				sink += mask[0]
			}
			if sink == 1 {
				b.Log(sink)
			}
		})
	}
}
