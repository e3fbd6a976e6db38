//go:build amd64

package tensor

// amd64 kernel tables. AVX-512 detection extends the AVX2 protocol
// (axpy_amd64.go): the OS must additionally save opmask and ZMM state
// (XCR0 bits 5,6,7) and the CPU must report AVX512F (leaf 7 EBX bit 16).
// The int8 kernels take their 16-lane bodies when AVX512-VNNI (leaf 7 ECX
// bit 11) provides the fused u8·s8 multiply-accumulate VPDPBUSD; an
// AVX-512 host without it keeps the AVX2 bodies for that family.

// Implemented in kernels_amd64.s.
func axpyAVX512(alpha float32, x, y []float32)

// Implemented in kernels_amd64.s.
func scalAVX2(alpha float32, x []float32)

// The fp32 GEMM's register tiles (gemm_tile.go) and the direct
// convolution's (conv_tile.go), implemented in gemm_amd64.s.
func gemmTileAVX2(mr, n, k int, a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc int)
func gemmTileAVX512(mr, n, k int, a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc int)
func dotTileAVX2(mr, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
func dotTileAVX512(mr, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
func convTileAVX2(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int)
func convTileAVX512(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int)
func convDotAVX2(mr, n, k int, a []float32, lda int, b []float32, off []int, ow, pitch int, c []float32, ldc int)
func convDotAVX512(mr, n, k int, a []float32, lda int, b []float32, off []int, ow, pitch int, c []float32, ldc int)
func convAdjAVX2(mr, k int, a []float32, ars, aps int, b []float32, ldb, span int, c []float32, ldc int, keep []uint32, t []float32)
func convAdjAVX512(mr, k int, a []float32, ars, aps int, b []float32, ldb, span int, c []float32, ldc int, keep []uint32, t []float32)

// The packed weight-gradient kernels (wgrad.go), implemented in
// wgrad_amd64.s, and the ADAM update (adam.go), in adam_amd64.s.
func wgPackAVX2(dst, b []float32, idx *[wgCols]int32, k, ow, pitch, ns, bs int)
func wgPackAVX512(dst, b []float32, idx *[wgCols]int32, k, ow, pitch, ns, bs int)
func wgTileAVX2(m, w, k, ns int, a []float32, lda, as int, pk []float32, c []float32, ldc int)
func wgTileAVX512(m, w, k, ns int, a []float32, lda, as int, pk []float32, c []float32, ldc int)
func adamAVX2(w, g, m, v []float32, b1, c1, b2, c2, lr, eps float32)

// The conv-unit kernels (kernels_conv.go) and the direct convolution's
// epilogue (conv_tile.go), implemented in kernels_conv_amd64.s.
func reluAVX2(y, x []float32)
func reluAVX512(y, x []float32)
func reluGradAVX2(dx, y, g []float32)
func reluGradAVX512(dx, y, g []float32)
func maxPool2x2AVX2(dst, r0, r1 []float32)
func maxPool2x2AVX512(dst, r0, r1 []float32)
func maxPool2x2ArgmaxAVX2(dst []float32, idx []int32, r0, r1 []float32, base, w int32)
func maxPool2x2ArgmaxAVX512(dst []float32, idx []int32, r0, r1 []float32, base, w int32)
func gatherRowsAVX2(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
func gatherRowsAVX512(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
func scatterRowsAVX2(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
func scatterRowsAVX512(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
func convStoreAVX2(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool)
func convStoreAVX512(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool)
func convStoreArgmaxAVX2(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool)
func convStoreArgmaxAVX512(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool)
func unpoolAVX2(dy, g []float32, idx []int32, v []float32, planes, dyPlane, gPlane, vPlane, rows, vPitch, n, w int, relu bool)
func unpoolAVX512(dy, g []float32, idx []int32, v []float32, planes, dyPlane, gPlane, vPlane, rows, vPitch, n, w int, relu bool)

// The int8 datapath's kernels (gemm_s8.go), implemented in
// kernels_s8_amd64.s.
func convS8AVX2(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int)
func convS8VNNI(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int)
func requantF32AVX2(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int)
func requantF32AVX512(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int)
func requantU8AVX2(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
func requantU8AVX512(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
func requantPoolU8AVX2(dst []uint8, r0, r1 []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
func requantPoolU8AVX512(dst []uint8, r0, r1 []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
func quantizeU8AVX2(dst []uint8, src []float32, inv float64)
func quantizeU8AVX512(dst []uint8, src []float32, inv float64)
func quantizePlanesU8AVX2(dst []uint8, src []float32, c, h, w, dstPitch, c4 int, inv float64)
func quantizePlanesU8AVX512(dst []uint8, src []float32, c, h, w, dstPitch, c4 int, inv float64)

func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0xE6 != 0xE6 { // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&(1<<16) != 0 // AVX512F
}

func hasVNNI() bool {
	if !hasAVX512() {
		return false
	}
	_, _, ecx7, _ := cpuidex(7, 0)
	return ecx7&(1<<11) != 0 // AVX512_VNNI
}

func kernelISAs() []string {
	isas := []string{"scalar"}
	if hasAVX2() {
		isas = append(isas, "avx2")
	}
	if hasAVX512() {
		isas = append(isas, "avx512")
	}
	return isas
}

func installAVX2() {
	gemmTile = gemmTileAVX2
	dotTile = dotTileAVX2
	convTile = convTileAVX2
	convDot = convDotAVX2
	wgPack = wgPackAVX2
	wgTile = wgTileAVX2
	adam = adamAVX2
	convStore = convStoreAVX2
	convStoreArgmax = convStoreArgmaxAVX2
	convAdj = convAdjAVX2
	unpool = unpoolAVX2
	axpy = axpyAVX2
	scal = scalAVX2
	relu = reluAVX2
	reluGrad = reluGradAVX2
	maxPool2x2 = maxPool2x2AVX2
	maxPool2x2Argmax = maxPool2x2ArgmaxAVX2
	gatherRows = gatherRowsAVX2
	scatterRows = scatterRowsAVX2
	convS8 = convS8AVX2
	requantF32 = requantF32AVX2
	requantU8 = requantU8AVX2
	requantPoolU8 = requantPoolU8AVX2
	quantizeU8 = quantizeU8AVX2
	quantizePlanesU8 = quantizePlanesU8AVX2
	kernelISA = "avx2"
}

func installAVX512() {
	installAVX2()
	gemmTile = gemmTileAVX512
	dotTile = dotTileAVX512
	convTile = convTileAVX512
	convDot = convDotAVX512
	wgPack = wgPackAVX512
	wgTile = wgTileAVX512
	convAdj = convAdjAVX512
	convStore = convStoreAVX512
	convStoreArgmax = convStoreArgmaxAVX512
	unpool = unpoolAVX512
	axpy = axpyAVX512
	relu = reluAVX512
	reluGrad = reluGradAVX512
	maxPool2x2 = maxPool2x2AVX512
	maxPool2x2Argmax = maxPool2x2ArgmaxAVX512
	gatherRows = gatherRowsAVX512
	scatterRows = scatterRowsAVX512
	if hasVNNI() {
		convS8 = convS8VNNI
		requantF32 = requantF32AVX512
		requantU8 = requantU8AVX512
		requantPoolU8 = requantPoolU8AVX512
		quantizeU8 = quantizeU8AVX512
		quantizePlanesU8 = quantizePlanesU8AVX512
	}
	kernelISA = "avx512"
}

func setKernels(mode string) error {
	switch mode {
	case "scalar":
		installScalar()
	case "avx2":
		if !hasAVX2() {
			return unknownISA(mode)
		}
		installAVX2()
	case "avx512":
		if !hasAVX512() {
			return unknownISA(mode)
		}
		installAVX512()
	case "auto":
		switch {
		case hasAVX512():
			installAVX512()
		case hasAVX2():
			installAVX2()
		default:
			installScalar()
		}
	default:
		return unknownISA(mode)
	}
	return nil
}

func init() {
	setKernels("auto")
}
