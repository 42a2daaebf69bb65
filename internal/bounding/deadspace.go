package bounding

import (
	"math/rand"

	"cbb/internal/geom"
)

// DefaultSamples is the Monte-Carlo sample budget used by the evaluation
// when estimating dead space of a bounding shape.
const DefaultSamples = 4096

// DeadSpaceFraction estimates the fraction of the shape's area that is not
// covered by any of the objects ("dead space", Definition 1 generalised to
// arbitrary bounding shapes), using seeded Monte-Carlo sampling over the
// objects' MBB. It returns a value in [0, 1]; shapes with zero area report
// zero dead space.
func DeadSpaceFraction(s Shape, objects []geom.Rect, samples int, seed int64) float64 {
	if s == nil || len(objects) == 0 || samples <= 0 {
		return 0
	}
	box := geom.MBROf(objects)
	if box.Volume() <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	dims := box.Dims()
	inShape, dead := 0, 0
	p := make(geom.Point, dims)
	for i := 0; i < samples; i++ {
		for d := 0; d < dims; d++ {
			p[d] = box.Lo[d] + rng.Float64()*(box.Hi[d]-box.Lo[d])
		}
		if !s.Contains(p) {
			continue
		}
		inShape++
		covered := false
		for _, o := range objects {
			if o.ContainsPoint(p) {
				covered = true
				break
			}
		}
		if !covered {
			dead++
		}
	}
	// Sampling is restricted to the MBB; shapes larger than the MBB (circle,
	// rotated box) have all of their out-of-MBB area dead by construction.
	// Account for it analytically via the area ratio.
	mbbArea := box.Volume()
	shapeArea := s.Area()
	if inShape == 0 {
		if shapeArea > mbbArea {
			return (shapeArea - mbbArea) / shapeArea
		}
		return 0
	}
	insideFrac := float64(dead) / float64(inShape)
	if shapeArea <= mbbArea || shapeArea == 0 {
		return insideFrac
	}
	insideArea := mbbArea * float64(inShape) / float64(samples)
	outsideArea := shapeArea - insideArea
	if outsideArea < 0 {
		outsideArea = 0
	}
	return (insideFrac*insideArea + outsideArea) / shapeArea
}
