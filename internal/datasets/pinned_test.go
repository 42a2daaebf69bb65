package datasets_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cbb/internal/datasets"
	"cbb/internal/geom"
	"cbb/internal/querygen"
)

// digestRects hashes every coordinate bit of rs, Lo then Hi per rectangle, in
// order.
func digestRects(rs []geom.Rect) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range rs {
		for _, p := range [2]geom.Point{r.Lo, r.Hi} {
			for _, v := range p {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedInputsPinned holds the generated datasets and query streams to
// digests recorded before the generators wrote into one coordinate slab and
// before the query calibration became allocation-free: the benchmark's data
// sets (seed 42; the join partner par02 at 43), every dataset at a small
// size, the hot-region and streamed paths of cmd/datagen, and the benchmark's
// 20k-query QR0/QR1/QR2 cycle at seed 2. One changed bit anywhere changes a
// digest; never edit them to make a change pass.
func TestGeneratedInputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1.2M objects and 60k queries")
	}
	check := func(what, want string, rs []geom.Rect) {
		t.Helper()
		if got := digestRects(rs); got != want {
			t.Errorf("%s: digest %s, want %s", what, got, want)
		}
	}
	generate := func(name string, n int, seed int64) []geom.Rect {
		t.Helper()
		rs, err := datasets.Generate(name, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	for _, c := range []struct {
		name string
		n    int
		seed int64
		want string
	}{
		{"rea02", 500000, 42, "19a119908e8a8c338c07c9db49f8c3fc781d93c598eb3f0f1105c2c44b05c686"},
		{"rea02", 200000, 42, "353691cb82e3f32af18e249de4beb29392f0ce6ec067cd797bea0a7b406549d3"},
		{"axo03", 300000, 42, "0dcc15d7ff37fdcdd83290fb5b63f25d30f03591c2bc93056c47ec6f860e6ed5"},
		{"hot02", 200000, 42, "96fb92e38ba0a8b01eba26960731f477bc4acc613d3d729cef2e499c44441b4d"},
		{"par02", 20000, 43, "7af88da41b60528153e8de77e7b34b79a7ee57a9ff944e167c53736e70c60b10"},
		{"par02", 20000, 42, "2c943d7c55bba32c5bfd52981db38b23642f8ecd1f909e79561e110502e354d9"},
		{"par03", 5000, 42, "27ae01919d849f3a337e8c7d25d5480d202a9aca65b306961fd0bba19b3ff591"},
		{"rea03", 5000, 42, "5ac1686318faeb8621cb5dd3f754af0b8ca50efeef415763f97a50d9bbb7ade3"},
		{"den03", 5000, 42, "72a256fda3769b0510f66da5060466c2c895bf10c989cbe7180c3b884647710d"},
		{"neu03", 5000, 42, "65a0df1535f64855b1d9c728392a2cce641549484b931b4e6894221b0b3c767a"},
		{"hot03", 5000, 42, "f2f6b0fe624813139ae212cdad883be204929245a681c94c75f12c37f237438b"},
	} {
		check(fmt.Sprintf("Generate(%s, %d, %d)", c.name, c.n, c.seed), c.want, generate(c.name, c.n, c.seed))
	}

	for _, c := range []struct {
		name string
		p    datasets.HotParams
		want string
	}{
		{"hot02", datasets.HotParams{Hotspots: 3, ZipfS: 2}, "b8102c248ede360a5f0cf637bd5dfd1c8272fe0dc54ea7658d8a64b1be3f2175"},
		{"hot03", datasets.HotParams{Hotspots: 20, ZipfS: 1.2, Background: 0.3}, "7aff8419543f921c4e036386a08422abcbcea015ad8ec9f757abd61e06ce9057"},
	} {
		rs, err := datasets.GenerateHot(c.name, 3000, 5, c.p)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("GenerateHot(%s, %+v)", c.name, c.p), c.want, rs)
	}

	for _, c := range []struct {
		name string
		want string
	}{
		{"rea02", "dd953b7b25cbc6bc7121b0c3ab4487c997cf7a386317877e325e71dcaea88f88"},
		{"axo03", "5de5e6ba951f8c7bd6fd6364d40904e467ca99bfcb3ed0bc2ad9db85784d035d"},
		{"neu03", "157cc607926efe3b1944ed081c6fc18bb7b2e1507e2f4e8553980a9759b31a76"},
	} {
		var all []geom.Rect
		err := datasets.GenerateStream(c.name, 2500, 9, 1000, func(chunk []geom.Rect) error {
			all = append(all, chunk...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("GenerateStream(%s)", c.name), c.want, all)
	}

	// The benchmark's range stream: profiles cycled QR0, QR1, QR2 over the
	// data set, generator seeded 2.
	for _, c := range []struct {
		name string
		n    int
		want string
	}{
		{"rea02", 500000, "27e031ec15b5ad27ecd1d67e997861f3aefb4f5f170d9505b46bee1345a86bcd"},
		{"axo03", 300000, "7e8ab91014d699c772a2eebeb934fb8c308586036cd871701f1628139c35df93"},
		{"hot02", 200000, "21f22e70d8a65368ed827682cb9ce4e70990bc5ba9b21f41a1000d7459556158"},
	} {
		rs := generate(c.name, c.n, 42)
		uni, err := datasets.Universe(c.name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := querygen.New(rs, uni, 2)
		if err != nil {
			t.Fatal(err)
		}
		profiles := querygen.AllProfiles()
		qs := make([]geom.Rect, 20000)
		for i := range qs {
			qs[i] = g.Query(profiles[i%len(profiles)])
		}
		check(fmt.Sprintf("queries over %s %d", c.name, c.n), c.want, qs)
	}
}
