package main

// Adapter for internal/tensor — the only file of the benchmark that imports
// it. Entry points used: Gemm, GemmS8, GemmFLOPs, ParallelFor, SetWorkers,
// KernelISA, New, FromSlice, NewRNG.

import (
	"time"

	"deep15pf/internal/tensor"
)

// Tensor and RNG are named here so the workload files can hold them
// without importing the layer.
type (
	Tensor = tensor.Tensor
	RNG    = tensor.RNG
)

func newTensor(shape ...int) *Tensor                    { return tensor.New(shape...) }
func tensorFromSlice(d []float32, shape ...int) *Tensor { return tensor.FromSlice(d, shape...) }
func newRNG(seed uint64) *RNG                           { return tensor.NewRNG(seed) }
func kernelISA() string                                 { return tensor.KernelISA() }

// setKernelThreads sets how many goroutines one kernel call may use and
// returns the previous value.
func setKernelThreads(n int) int { return tensor.SetWorkers(n) }

// probeGemm times C = A·B at m×n×k with the given kernel thread count and
// returns GFLOP/s.
func probeGemm(m, n, k, threads int, budget time.Duration) float64 {
	prev := tensor.SetWorkers(threads)
	defer tensor.SetWorkers(prev)
	rng := tensor.NewRNG(1)
	a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	rng.FillNorm(a, 0, 1)
	rng.FillNorm(b, 0, 1)
	sec := timeLoop(budget, func() {
		tensor.Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, c.Data)
	})
	return float64(tensor.GemmFLOPs(m, n, k)) / sec / 1e9
}

// probeGemmS8 times the u8·s8 integer GEMM at m×n×k on one kernel thread
// and returns giga-operations per second (a multiply and an add per term).
func probeGemmS8(m, n, k int, budget time.Duration) float64 {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := tensor.NewRNG(2)
	a := make([]int8, m*k)
	b := make([]uint8, n*k)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b {
		b[i] = uint8(rng.Intn(256))
	}
	c := make([]int32, m*n)
	sec := timeLoop(budget, func() { tensor.GemmS8(m, n, k, a, b, c) })
	return float64(tensor.GemmFLOPs(m, n, k)) / sec / 1e9
}

// probeParallelFor times an empty two-way kernel dispatch and counts its
// heap allocations: the fixed cost every parallel kernel call pays.
func probeParallelFor(budget time.Duration) (us, allocs float64) {
	prev := tensor.SetWorkers(2)
	defer tensor.SetWorkers(prev)
	var sink [2]int
	fn := func() { tensor.ParallelFor(2, func(lo, hi int) { sink[lo] = hi }) }
	us = timeLoop(budget, fn) * 1e6
	allocs = allocsPer(200, fn)
	return us, allocs
}
