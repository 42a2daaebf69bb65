// Package querygen generates the range-query workloads of the paper's
// benchmark: hypercubic query windows centred at dithered object centres (so
// dense regions are queried most), sized to hit a target result cardinality.
// Three standard profiles are provided — QR0, QR1 and QR2 — retrieving
// approximately 1, 10 and 100 objects per query respectively.
//
// A query costs its calibration: 24 bisection steps over the side length,
// each rewriting one scratch window and estimating its object count from a
// grid histogram of object centres. An estimate computes each covered cell's
// fraction once per dimension and sums the covered cells with an odometer,
// so the only allocation of a query is the window it returns (its Lo and
// Hi). BenchmarkQueryGeneration (par02, 20k objects) measures 3.4–4.0 µs
// and 2 allocations a query on a 2-core Xeon VM.
package querygen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cbb/internal/geom"
)

// Profile identifies a query-selectivity profile.
type Profile int

// The three selectivity profiles of the benchmark.
const (
	// QR0 retrieves roughly one object per query (high selectivity).
	QR0 Profile = iota
	// QR1 retrieves roughly ten objects per query (medium selectivity).
	QR1
	// QR2 retrieves roughly one hundred objects per query (low selectivity).
	QR2
)

// String names the profile as in the paper.
func (p Profile) String() string {
	switch p {
	case QR0:
		return "QR0"
	case QR1:
		return "QR1"
	case QR2:
		return "QR2"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Target returns the approximate number of objects a query of this profile
// should retrieve.
func (p Profile) Target() int {
	switch p {
	case QR0:
		return 1
	case QR1:
		return 10
	case QR2:
		return 100
	default:
		return 1
	}
}

// AllProfiles lists QR0, QR1, QR2 in order.
func AllProfiles() []Profile { return []Profile{QR0, QR1, QR2} }

// Generator produces query rectangles over a fixed object set. It builds a
// coarse grid histogram of object centres once, then calibrates each query
// window's side length so the estimated number of intersected objects is
// close to the profile's target. A Generator is not safe for concurrent use.
type Generator struct {
	objects  []geom.Rect
	universe geom.Rect
	dims     int
	grid     *gridHistogram
	rng      *rand.Rand
	// centre and probe are the scratch a query is calibrated in: the
	// dithered centre and the window of the current bisection step.
	centre geom.Point
	probe  geom.Rect
}

// New creates a generator over the given objects. The universe must contain
// all objects, and every object must have the universe's dimensionality; the
// seed makes the workload reproducible.
func New(objects []geom.Rect, universe geom.Rect, seed int64) (*Generator, error) {
	if len(objects) == 0 {
		return nil, errors.New("querygen: need at least one object")
	}
	if !universe.Valid() {
		return nil, errors.New("querygen: invalid universe")
	}
	grid, err := newGridHistogram(objects, universe)
	if err != nil {
		return nil, err
	}
	dims := universe.Dims()
	g := &Generator{
		objects:  objects,
		universe: universe.Clone(),
		dims:     dims,
		grid:     grid,
		rng:      rand.New(rand.NewSource(seed)),
		centre:   make(geom.Point, dims),
		probe:    geom.Rect{Lo: make(geom.Point, dims), Hi: make(geom.Point, dims)},
	}
	return g, nil
}

// Queries produces count query windows of the given profile.
func (g *Generator) Queries(p Profile, count int) []geom.Rect {
	out := make([]geom.Rect, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, g.Query(p))
	}
	return out
}

// Query produces a single query window of the given profile: a hypercube
// centred at a dithered object centre with a side length calibrated against
// the local object density. The returned rectangle is the only allocation.
func (g *Generator) Query(p Profile) geom.Rect {
	target := p.Target()
	// Pick a random object and dither its centre by a fraction of its size.
	obj := g.objects[g.rng.Intn(len(g.objects))]
	centre := g.centre
	for d := 0; d < g.dims; d++ {
		centre[d] = (obj.Lo[d] + obj.Hi[d]) / 2
		span := obj.Side(d) + 1
		centre[d] += (g.rng.Float64() - 0.5) * span
		centre[d] = clamp(centre[d], g.universe.Lo[d], g.universe.Hi[d])
	}
	side := g.calibrateSide(centre, target)
	w := geom.Rect{Lo: make(geom.Point, g.dims), Hi: make(geom.Point, g.dims)}
	g.window(w, centre, side)
	return w
}

// calibrateSide binary-searches the window side length so that the grid
// estimate of intersected objects is close to the target. Every step
// rewrites the one probe window, so calibration allocates nothing.
func (g *Generator) calibrateSide(centre geom.Point, target int) float64 {
	maxSide := g.universe.Side(0)
	for d := 1; d < g.dims; d++ {
		if s := g.universe.Side(d); s > maxSide {
			maxSide = s
		}
	}
	lo, hi := maxSide*1e-6, maxSide
	for iter := 0; iter < 24; iter++ {
		mid := math.Sqrt(lo * hi) // geometric midpoint: sides span decades
		g.window(g.probe, centre, mid)
		est := g.grid.estimate(g.probe)
		if est < float64(target) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}

// window writes into w the hypercubic window of the given side centred at
// centre, clamped to the universe.
func (g *Generator) window(w geom.Rect, centre geom.Point, side float64) {
	for d := 0; d < g.dims; d++ {
		w.Lo[d] = clamp(centre[d]-side/2, g.universe.Lo[d], g.universe.Hi[d])
		w.Hi[d] = clamp(centre[d]+side/2, g.universe.Lo[d], g.universe.Hi[d])
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// --- density estimation --------------------------------------------------------

// gridHistogram is a coarse uniform grid over object centres used to
// estimate how many objects a window intersects without scanning the whole
// dataset for every calibration step.
type gridHistogram struct {
	universe geom.Rect
	dims     int
	cells    int // cells per dimension
	counts   []int
	// edges holds dimension d's cell boundaries at d*(cells+1): cell c spans
	// edges c and c+1.
	edges []float64
	// Scratch of estimate, sized once: per dimension the first covered cell,
	// the number of covered cells and the odometer's position among them;
	// frac holds dimension d's covered-cell fractions at d*cells; prod and
	// flat hold the running fraction product and cell index of the
	// dimensions before each level, up to the last dimension's.
	first, n, at []int
	frac         []float64
	prod         []float64
	flat         []int
}

// newGridHistogram bins the objects' centres. It fails if an object's
// dimensionality is not the universe's.
func newGridHistogram(objects []geom.Rect, universe geom.Rect) (*gridHistogram, error) {
	dims := universe.Dims()
	// Aim for ~8 objects per occupied cell on average.
	cells := int(math.Ceil(math.Pow(float64(len(objects))/8.0, 1.0/float64(dims))))
	if cells < 4 {
		cells = 4
	}
	if cells > 256 {
		cells = 256
	}
	size := 1
	for d := 0; d < dims; d++ {
		size *= cells
	}
	h := &gridHistogram{
		universe: universe, dims: dims, cells: cells, counts: make([]int, size),
		first: make([]int, dims), n: make([]int, dims), at: make([]int, dims),
		frac: make([]float64, dims*cells), prod: make([]float64, dims), flat: make([]int, dims),
	}
	h.edges = make([]float64, 0, dims*(cells+1))
	for d := 0; d < dims; d++ {
		for c := 0; c <= cells; c++ {
			h.edges = append(h.edges, universe.Lo[d]+float64(c)/float64(cells)*universe.Side(d))
		}
	}
	for i, o := range objects {
		if len(o.Lo) != dims || len(o.Hi) != dims {
			return nil, fmt.Errorf("querygen: object %d has %d/%d dimensions, the universe %d", i, len(o.Lo), len(o.Hi), dims)
		}
		idx := 0
		for d := 0; d < dims; d++ {
			idx = idx*cells + h.cellCoord((o.Lo[d]+o.Hi[d])/2, d)
		}
		h.counts[idx]++
	}
	return h, nil
}

func (h *gridHistogram) cellCoord(v float64, d int) int {
	span := h.universe.Side(d)
	if span <= 0 {
		return 0
	}
	c := int((v - h.universe.Lo[d]) / span * float64(h.cells))
	if c < 0 {
		c = 0
	}
	if c >= h.cells {
		c = h.cells - 1
	}
	return c
}

// estimate returns the approximate number of object centres inside the
// window: full counts of fully covered cells plus fractional counts of
// partially covered boundary cells. Each covered cell's fraction along each
// dimension is computed once; an odometer over the covered cells (last
// dimension fastest) then adds ((1·f0)·f1)…·count per cell. Those products
// in that order are what a recursive walk over the dimensions adds, and the
// generated windows depend on every bit of the sum.
func (h *gridHistogram) estimate(q geom.Rect) float64 {
	dims, cells := h.dims, h.cells
	for d := 0; d < dims; d++ {
		first, last := h.cellCoord(q.Lo[d], d), h.cellCoord(q.Hi[d], d)
		if last < first {
			return 0
		}
		h.first[d], h.n[d], h.at[d] = first, last-first+1, 0
		frac := h.frac[d*cells:]
		edges := h.edges[d*(cells+1):]
		for c := first; c <= last; c++ {
			cellLo, cellHi := edges[c], edges[c+1]
			overlap := min(q.Hi[d], cellHi) - max(q.Lo[d], cellLo)
			width := cellHi - cellLo
			f := 1.0
			// A covered cell's overlap is its width, and width/width is 1.
			if width > 0 && overlap != width {
				f = overlap / width
				if f < 0 {
					f = 0
				}
				if f > 1 {
					f = 1
				}
			}
			frac[c-first] = f
		}
	}
	// The odometer runs over the dimensions before the last; the last
	// dimension's covered cells are adjacent in counts, one row per position.
	last := dims - 1
	prod, flat, at := h.prod, h.flat, h.at
	prod[0], flat[0] = 1, 0
	lastFrac := h.frac[last*cells : last*cells+h.n[last]]
	var total float64
	for d := 0; ; {
		// Descend: fill the levels below d at the odometer's positions.
		for ; d < last; d++ {
			prod[d+1] = prod[d] * h.frac[d*cells+at[d]]
			flat[d+1] = flat[d]*cells + h.first[d] + at[d]
		}
		p := prod[last]
		row := h.counts[flat[last]*cells+h.first[last]:][:len(lastFrac)]
		for k, f := range lastFrac {
			total += p * f * float64(row[k])
		}
		// Advance the dimension before the last, carrying into earlier ones.
		for d = last - 1; d >= 0; d-- {
			at[d]++
			if at[d] < h.n[d] {
				break
			}
			at[d] = 0
		}
		if d < 0 {
			return total
		}
	}
}
