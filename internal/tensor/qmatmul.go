package tensor

import (
	"fmt"
)

// QuantizeRowsQ8 symmetrically quantizes each row of src — an (m,k)
// row-major matrix — to int8: scales[i] = maxAbs(row i)/127 (1 for an
// all-zero row, so dequantization is exact) and
// dst[i*k+j] = round(src[i*k+j]/scales[i]) clamped to ±127.
//
// Per-ROW scales matter beyond accuracy: the serving path quantizes
// activations with this function, and a per-row scale makes every row's
// int8 image independent of which batch it rides in — so cached and
// coalesced executions of the same tuple are bit-identical.
func QuantizeRowsQ8(dst []int8, scales []float32, src []float32, m, k int) {
	if len(src) < m*k || len(dst) < m*k || len(scales) < m {
		panic(fmt.Sprintf("tensor: QuantizeRowsQ8 buffers too short for (%d,%d)", m, k))
	}
	for i := 0; i < m; i++ {
		row := src[i*k : (i+1)*k : (i+1)*k]
		var maxAbs float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		scales[i] = scale
		q := dst[i*k : (i+1)*k : (i+1)*k]
		inv := 1 / scale
		for j, v := range row {
			q[j] = int8(quantQ8(v, inv))
		}
	}
}

// quantQ8 rounds v·inv half away from zero and clamps to ±127 — the exact
// arithmetic QuantizeRowsQ8 has always used, with the math.Round call
// replaced by an add-and-truncate that the hot loops can afford. The
// product is computed in float32 (matching the historical behaviour) and
// widened before the ±0.5 add, which is then exact: a widened float32 of
// magnitude ≥ 2⁻²⁹ has its lowest bit well above float64's rounding point,
// and anything smaller rounds to 0 either way.
func quantQ8(v, inv float32) int32 {
	f := float64(v * inv)
	switch {
	case f >= 126.5: // rounds to ≥ 127: clamp before int conversion
		return 127
	case f <= -126.5:
		return -127
	case f >= 0:
		return int32(f + 0.5)
	case f < 0:
		return int32(f - 0.5)
	}
	return 0 // NaN input: comparisons all false
}

// QuantizePackQ8A is the fused form of QuantizeRowsQ8 + PackQ8A: it
// quantizes each row of the (m,k) f32 matrix with a per-row scale and
// packs the biased int8 image straight into the activation-side SWAR
// layout, never materialising the intermediate int8 matrix. lanes, sums
// and scales are fully overwritten (dirty scratch buffers are fine);
// results are bit-identical to running the two steps separately. This is
// what makes per-batch activation quantization affordable: the serving
// path pays one read of the activations and one write of the packed words,
// instead of quantize-write, pack-read, pack-write.
func QuantizePackQ8A(lanes []uint64, sums []int32, scales []float32, src []float32, m, k int) {
	words := Q8Lanes(k)
	if len(src) < m*k || len(lanes) < m*words || len(sums) < m || len(scales) < m {
		panic(fmt.Sprintf("tensor: QuantizePackQ8A buffers too short for (%d,%d)", m, k))
	}
	full := k / q8Lanes
	rem := k - full*q8Lanes
	for i := 0; i < m; i++ {
		row := src[i*k : (i+1)*k : (i+1)*k]
		var maxAbs float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1
		}
		scales[i] = scale
		inv := 1 / scale
		dst := lanes[i*words : (i+1)*words : (i+1)*words]
		var sum int32
		for w := 0; w < full; w++ {
			p := w * q8Lanes
			q0 := quantQ8(row[p], inv)
			q1 := quantQ8(row[p+1], inv)
			q2 := quantQ8(row[p+2], inv)
			sum += q0 + q1 + q2 + 3*q8Bias
			dst[w] = uint64(uint32(q0+q8Bias)) |
				uint64(uint32(q1+q8Bias))<<q8Shift |
				uint64(uint32(q2+q8Bias))<<(2*q8Shift)
		}
		w := full
		if rem > 0 {
			var packed uint64
			p := full * q8Lanes
			for l := 0; l < rem; l++ {
				q := quantQ8(row[p+l], inv)
				sum += q + q8Bias
				packed |= uint64(uint32(q+q8Bias)) << (q8Shift * l)
			}
			dst[w] = packed
			w++
		}
		for ; w < words; w++ {
			dst[w] = 0 // pad words contribute nothing to any bucket
		}
		sums[i] = sum
	}
}

// MatMulQ8Into computes the int8 GEMM out = (a8 · b8ᵀ) scaled back to f32:
// a8 is an (m,k) row-major int8 matrix with one scale per row (quantized
// activations), b8 an (n,k) row-major int8 matrix with one scale per row —
// the (out,in) weight layout, so b8's rows are output channels and its
// scales are the per-channel weight scales. Accumulation is exact int32;
// each element dequantizes on store:
//
//	out[i,j] = Σₚ a8[i,p]·b8[j,p] × aScales[i] × bScales[j]
//
// The same fanOut/bandLoop machinery as the f32 kernels supplies row-band
// parallelism, and integer accumulation is order-independent, so
// parallel-vs-serial bit-identity is exact rather than tolerance-level.
func MatMulQ8Into(out *Tensor, a8 []int8, aScales []float32, b8 []int8, bScales []float32, m, k, n int) {
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into output shape %v, want (%d,%d)", out.shape, m, n))
	}
	if len(a8) < m*k || len(aScales) < m || len(b8) < n*k || len(bScales) < n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into operands too short for (%d,%d)×(%d,%d)ᵀ", m, k, n, k))
	}
	kernelQ8Calls.Add(1)
	rows := matmulQ8Rows
	if k > q8WideK {
		rows = matmulQ8RowsWide
	}
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		rows(out.data, a8, aScales, b8, bScales, 0, m, k, n)
		return
	}
	defer release()
	bandLoop(m, workers, func(r0, r1 int) {
		rows(out.data, a8, aScales, b8, bScales, r0, r1, k, n)
	})
}

// q8WideK is the largest inner dimension the int32-accumulator kernel
// handles without overflow risk: k·127² must stay below 2³¹.
const q8WideK = 1 << 17

// matmulQ8RowsWide is the int64-accumulator fallback for very wide inner
// dimensions (Amazon-14k-class layers), where k·127² could overflow int32.
func matmulQ8RowsWide(out []float32, a8 []int8, aScales []float32, b8 []int8, bScales []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a8[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		as := aScales[i]
		for j := 0; j < n; j++ {
			brow := b8[j*k : (j+1)*k : (j+1)*k]
			var sum int64
			for p, av := range arow {
				sum += int64(av) * int64(brow[p])
			}
			orow[j] = float32(sum) * as * bScales[j]
		}
	}
}

// matmulQ8Rows computes rows [r0,r1) of the int8 GEMM. Same shape as
// matmulTransBRows: four output channels per pass over the activation row,
// int32 accumulators (independent integer add chains pipeline freely),
// dequantize on store.
func matmulQ8Rows(out []float32, a8 []int8, aScales []float32, b8 []int8, bScales []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a8[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		as := aScales[i]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b8[j*k : (j+1)*k : (j+1)*k]
			b1 := b8[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b8[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b8[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 int32
			for p, av := range arow {
				a := int32(av)
				s0 += a * int32(b0[p])
				s1 += a * int32(b1[p])
				s2 += a * int32(b2[p])
				s3 += a * int32(b3[p])
			}
			bs := bScales[j : j+4 : j+4]
			orow[j] = float32(s0) * as * bs[0]
			orow[j+1] = float32(s1) * as * bs[1]
			orow[j+2] = float32(s2) * as * bs[2]
			orow[j+3] = float32(s3) * as * bs[3]
		}
		for ; j < n; j++ {
			orow[j] = float32(dotQ8(arow, b8[j*k:(j+1)*k:(j+1)*k])) * as * bScales[j]
		}
	}
}

// SWAR-packed int8 GEMM
//
// Scalar int8 dot products are bottlenecked on integer-multiply throughput
// (one IMUL per port per cycle), which makes a straight int8 kernel no
// faster than the f32 one. The packed kernel fixes that by biasing int8
// values to uint8 (v+128 ∈ [1,255], pad 0) and packing three per uint64 at
// 21-bit spacing. For packed words A = a₀ + a₁·2²¹ + a₂·2⁴² and (lane-
// reversed) B = b₂ + b₁·2²¹ + b₀·2⁴², the single 64-bit product A·B carries
// a₀b₀ + a₁b₁ + a₂b₂ — a 3-element dot product — in bits 42..59:
//
//   - diagonal terms aᵢbⱼ with i=j land at 2⁴², summing to ≤ 3·255² < 2¹⁸
//   - sub-diagonal buckets (2⁰, 2²¹) each stay < 2²¹, so nothing carries
//     into bit 42
//   - super-diagonal buckets land at 2⁶³ and 2⁸⁴ — masked or truncated away
//
// One multiply per three MACs, versus three, and the biased dot is mapped
// back exactly: Σab = Σa'b' − 128Σa' − 128Σb' + 128²k, with the biased row
// sums Σa', Σb' computed once at pack time. The result is the same integer
// a plain int32 kernel produces, so the packed path is bit-identical to
// MatMulQ8Into — just faster.

const (
	q8Lanes = 3                       // int8 values per packed uint64
	q8Shift = 21                      // lane spacing in bits
	q8Bias  = 128                     // int8 → biased uint8 offset
	q8DotSh = (q8Lanes - 1) * q8Shift // diagonal bucket position (42)

	// The inner loop accumulates RAW packed products and extracts the
	// diagonal bucket once per chunk, so each 3-MAC step is one multiply
	// and one add. Every 2¹²-bit bucket has 2²¹ of headroom before it
	// collides with the next; the largest per-word bucket value is
	// 3·255² = 195075, so up to ⌊2²¹/195075⌋ = 10 words (30 MACs) can
	// accumulate before extraction.
	q8Chunk     = 10
	q8ChunkMask = (1 << q8Shift) - 1 // chunked diagonal sum: < 2²¹
)

// Q8Lanes returns the number of packed uint64 words per row of k int8
// values: ⌈k/3⌉ rounded up to a whole number of extraction chunks, so the
// kernel's inner loop always runs a constant q8Chunk words (padding words
// are all-zero lanes, which contribute nothing to any bucket).
func Q8Lanes(k int) int {
	words := (k + q8Lanes - 1) / q8Lanes
	return (words + q8Chunk - 1) / q8Chunk * q8Chunk
}

// PackQ8A packs m rows of k int8 values into the activation-side SWAR
// layout: lanes in ascending order, biased by 128, zero-padded. sums[i]
// receives the biased row sum Σ(v+128), which the kernel needs to undo the
// bias exactly.
func PackQ8A(lanes []uint64, sums []int32, src []int8, m, k int) {
	packQ8(lanes, sums, src, m, k, false)
}

func packQ8(lanes []uint64, sums []int32, src []int8, m, k int, reverse bool) {
	words := Q8Lanes(k)
	if len(src) < m*k || len(lanes) < m*words || len(sums) < m {
		panic(fmt.Sprintf("tensor: packQ8 buffers too short for (%d,%d)", m, k))
	}
	for i := 0; i < m; i++ {
		row := src[i*k : (i+1)*k]
		dst := lanes[i*words : (i+1)*words]
		var sum int32
		for w := range dst {
			var packed uint64
			for l := 0; l < q8Lanes; l++ {
				p := w*q8Lanes + l
				if p >= k {
					break // pad lanes stay 0, contributing nothing
				}
				v := uint64(uint16(int16(row[p]) + q8Bias))
				sum += int32(row[p]) + q8Bias
				if reverse {
					packed |= v << (q8Shift * (q8Lanes - 1 - l))
				} else {
					packed |= v << (q8Shift * l)
				}
			}
			dst[w] = packed
		}
		sums[i] = sum
	}
}

// q8Panel is the number of output channels interleaved per weight panel.
const q8Panel = 4

// Q8BLanes returns the packed weight buffer length for n output channels of
// k weights: channels are rounded up to whole panels of q8Panel.
func Q8BLanes(n, k int) int {
	return (n + q8Panel - 1) / q8Panel * q8Panel * Q8Lanes(k)
}

// PackQ8B packs the weight side — n output channels of k int8 weights in
// (out,in) layout — for MatMulQ8PackedInto. Within each word lanes are
// stored in reverse order (which is what places the diagonal products of
// A·B in one bucket), and channels are interleaved in panels of four:
// panel g, word w, channel c lands at lanes[(g·words+w)·4+c]. The
// interleave keeps the kernel's inner loop down to two base pointers, so
// its four accumulators stay in registers. lanes must have Q8BLanes(n,k)
// elements and be zero-filled (pad channels contribute zero); sums[j]
// receives channel j's biased weight sum.
func PackQ8B(lanes []uint64, sums []int32, src []int8, n, k int) {
	words := Q8Lanes(k)
	if len(src) < n*k || len(lanes) < Q8BLanes(n, k) || len(sums) < n {
		panic(fmt.Sprintf("tensor: PackQ8B buffers too short for (%d,%d)", n, k))
	}
	for j := 0; j < n; j++ {
		row := src[j*k : (j+1)*k]
		g, c := j/q8Panel, j%q8Panel
		var sum int32
		for w := 0; w < words; w++ {
			var packed uint64
			for l := 0; l < q8Lanes; l++ {
				p := w*q8Lanes + l
				if p >= k {
					break
				}
				v := uint64(uint16(int16(row[p]) + q8Bias))
				sum += int32(row[p]) + q8Bias
				packed |= v << (q8Shift * (q8Lanes - 1 - l))
			}
			lanes[(g*words+w)*q8Panel+c] = packed
		}
		sums[j] = sum
	}
}

// MatMulQ8PackedInto is the packed-operand form of MatMulQ8Into: a is m
// rows packed with PackQ8A, b is n rows (output channels) packed with
// PackQ8B, k is the logical inner dimension. Results are bit-identical to
// MatMulQ8Into on the same int8 operands. k must be ≤ q8WideK·3 lanes'
// worth of exact-sum headroom — in practice any k below ~10⁶ is exact, and
// callers with larger k use MatMulQ8Into's wide path instead.
func MatMulQ8PackedInto(out *Tensor, aLanes []uint64, aSums []int32, aScales []float32, bLanes []uint64, bSums []int32, bScales []float32, m, k, n int) {
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulQ8PackedInto output shape %v, want (%d,%d)", out.shape, m, n))
	}
	words := Q8Lanes(k)
	if len(aLanes) < m*words || len(aSums) < m || len(aScales) < m || len(bLanes) < Q8BLanes(n, k) || len(bSums) < n || len(bScales) < n {
		panic(fmt.Sprintf("tensor: MatMulQ8PackedInto operands too short for (%d,%d)×(%d,%d)ᵀ", m, k, n, k))
	}
	kernelQ8Calls.Add(1)
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		matmulQ8PackedRows(out.data, aLanes, aSums, aScales, bLanes, bSums, bScales, 0, m, k, n)
		return
	}
	defer release()
	bandLoop(m, workers, func(r0, r1 int) {
		matmulQ8PackedRows(out.data, aLanes, aSums, aScales, bLanes, bSums, bScales, r0, r1, k, n)
	})
}

func matmulQ8PackedRows(out []float32, aLanes []uint64, aSums []int32, aScales []float32, bLanes []uint64, bSums []int32, bScales []float32, r0, r1, k, n int) {
	words := Q8Lanes(k)
	panelLen := words * q8Panel
	bias := q8Bias * int64(k) * q8Bias // +128²k term of the bias correction
	i := r0
	// 2×4 register block: two activation rows share every panel load, so
	// the kernel runs close to its integer-multiply floor instead of its
	// load/store overhead.
	for ; i+2 <= r1; i += 2 {
		arow0 := aLanes[i*words : (i+1)*words : (i+1)*words]
		arow1 := aLanes[(i+1)*words : (i+2)*words : (i+2)*words]
		orow0 := out[i*n : (i+1)*n : (i+1)*n]
		orow1 := out[(i+1)*n : (i+2)*n : (i+2)*n]
		as0, as1 := aScales[i], aScales[i+1]
		acorr0 := bias - q8Bias*int64(aSums[i])
		acorr1 := bias - q8Bias*int64(aSums[i+1])
		for g := 0; g*q8Panel < n; g++ {
			panel := bLanes[g*panelLen : (g+1)*panelLen : (g+1)*panelLen]
			var s0, s1, s2, s3, u0, u1, u2, u3 uint64
			for base := 0; base+q8Chunk <= len(arow0); base += q8Chunk {
				a0 := arow0[base : base+q8Chunk : base+q8Chunk]
				a1 := arow1[base : base+q8Chunk : base+q8Chunk]
				p := panel[base*q8Panel : base*q8Panel+q8Chunk*q8Panel : base*q8Panel+q8Chunk*q8Panel]
				r0 := a0[0]*p[0] + a0[1]*p[4] + a0[2]*p[8] + a0[3]*p[12] + a0[4]*p[16] +
					a0[5]*p[20] + a0[6]*p[24] + a0[7]*p[28] + a0[8]*p[32] + a0[9]*p[36]
				r1 := a0[0]*p[1] + a0[1]*p[5] + a0[2]*p[9] + a0[3]*p[13] + a0[4]*p[17] +
					a0[5]*p[21] + a0[6]*p[25] + a0[7]*p[29] + a0[8]*p[33] + a0[9]*p[37]
				r2 := a0[0]*p[2] + a0[1]*p[6] + a0[2]*p[10] + a0[3]*p[14] + a0[4]*p[18] +
					a0[5]*p[22] + a0[6]*p[26] + a0[7]*p[30] + a0[8]*p[34] + a0[9]*p[38]
				r3 := a0[0]*p[3] + a0[1]*p[7] + a0[2]*p[11] + a0[3]*p[15] + a0[4]*p[19] +
					a0[5]*p[23] + a0[6]*p[27] + a0[7]*p[31] + a0[8]*p[35] + a0[9]*p[39]
				t0 := a1[0]*p[0] + a1[1]*p[4] + a1[2]*p[8] + a1[3]*p[12] + a1[4]*p[16] +
					a1[5]*p[20] + a1[6]*p[24] + a1[7]*p[28] + a1[8]*p[32] + a1[9]*p[36]
				t1 := a1[0]*p[1] + a1[1]*p[5] + a1[2]*p[9] + a1[3]*p[13] + a1[4]*p[17] +
					a1[5]*p[21] + a1[6]*p[25] + a1[7]*p[29] + a1[8]*p[33] + a1[9]*p[37]
				t2 := a1[0]*p[2] + a1[1]*p[6] + a1[2]*p[10] + a1[3]*p[14] + a1[4]*p[18] +
					a1[5]*p[22] + a1[6]*p[26] + a1[7]*p[30] + a1[8]*p[34] + a1[9]*p[38]
				t3 := a1[0]*p[3] + a1[1]*p[7] + a1[2]*p[11] + a1[3]*p[15] + a1[4]*p[19] +
					a1[5]*p[23] + a1[6]*p[27] + a1[7]*p[31] + a1[8]*p[35] + a1[9]*p[39]
				s0 += (r0 >> q8DotSh) & q8ChunkMask
				s1 += (r1 >> q8DotSh) & q8ChunkMask
				s2 += (r2 >> q8DotSh) & q8ChunkMask
				s3 += (r3 >> q8DotSh) & q8ChunkMask
				u0 += (t0 >> q8DotSh) & q8ChunkMask
				u1 += (t1 >> q8DotSh) & q8ChunkMask
				u2 += (t2 >> q8DotSh) & q8ChunkMask
				u3 += (t3 >> q8DotSh) & q8ChunkMask
			}
			j := g * q8Panel
			if j+q8Panel <= n {
				bs := bScales[j : j+4 : j+4]
				bsum := bSums[j : j+4 : j+4]
				orow0[j] = float32(int64(s0)+acorr0-q8Bias*int64(bsum[0])) * as0 * bs[0]
				orow0[j+1] = float32(int64(s1)+acorr0-q8Bias*int64(bsum[1])) * as0 * bs[1]
				orow0[j+2] = float32(int64(s2)+acorr0-q8Bias*int64(bsum[2])) * as0 * bs[2]
				orow0[j+3] = float32(int64(s3)+acorr0-q8Bias*int64(bsum[3])) * as0 * bs[3]
				orow1[j] = float32(int64(u0)+acorr1-q8Bias*int64(bsum[0])) * as1 * bs[0]
				orow1[j+1] = float32(int64(u1)+acorr1-q8Bias*int64(bsum[1])) * as1 * bs[1]
				orow1[j+2] = float32(int64(u2)+acorr1-q8Bias*int64(bsum[2])) * as1 * bs[2]
				orow1[j+3] = float32(int64(u3)+acorr1-q8Bias*int64(bsum[3])) * as1 * bs[3]
			} else {
				ss := [q8Panel]uint64{s0, s1, s2, s3}
				uu := [q8Panel]uint64{u0, u1, u2, u3}
				for c := 0; j+c < n; c++ {
					bc := -q8Bias * int64(bSums[j+c])
					orow0[j+c] = float32(int64(ss[c])+acorr0+bc) * as0 * bScales[j+c]
					orow1[j+c] = float32(int64(uu[c])+acorr1+bc) * as1 * bScales[j+c]
				}
			}
		}
	}
	for ; i < r1; i++ {
		arow := aLanes[i*words : (i+1)*words : (i+1)*words]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		as := aScales[i]
		acorr := bias - q8Bias*int64(aSums[i])
		for g := 0; g*q8Panel < n; g++ {
			panel := bLanes[g*panelLen : (g+1)*panelLen : (g+1)*panelLen]
			var s0, s1, s2, s3 uint64
			for base := 0; base+q8Chunk <= len(arow); base += q8Chunk {
				a := arow[base : base+q8Chunk : base+q8Chunk]
				p := panel[base*q8Panel : base*q8Panel+q8Chunk*q8Panel : base*q8Panel+q8Chunk*q8Panel]
				r0 := a[0]*p[0] + a[1]*p[4] + a[2]*p[8] + a[3]*p[12] + a[4]*p[16] +
					a[5]*p[20] + a[6]*p[24] + a[7]*p[28] + a[8]*p[32] + a[9]*p[36]
				r1 := a[0]*p[1] + a[1]*p[5] + a[2]*p[9] + a[3]*p[13] + a[4]*p[17] +
					a[5]*p[21] + a[6]*p[25] + a[7]*p[29] + a[8]*p[33] + a[9]*p[37]
				r2 := a[0]*p[2] + a[1]*p[6] + a[2]*p[10] + a[3]*p[14] + a[4]*p[18] +
					a[5]*p[22] + a[6]*p[26] + a[7]*p[30] + a[8]*p[34] + a[9]*p[38]
				r3 := a[0]*p[3] + a[1]*p[7] + a[2]*p[11] + a[3]*p[15] + a[4]*p[19] +
					a[5]*p[23] + a[6]*p[27] + a[7]*p[31] + a[8]*p[35] + a[9]*p[39]
				s0 += (r0 >> q8DotSh) & q8ChunkMask
				s1 += (r1 >> q8DotSh) & q8ChunkMask
				s2 += (r2 >> q8DotSh) & q8ChunkMask
				s3 += (r3 >> q8DotSh) & q8ChunkMask
			}
			j := g * q8Panel
			if j+q8Panel <= n {
				bs := bScales[j : j+4 : j+4]
				bsum := bSums[j : j+4 : j+4]
				orow[j] = float32(int64(s0)+acorr-q8Bias*int64(bsum[0])) * as * bs[0]
				orow[j+1] = float32(int64(s1)+acorr-q8Bias*int64(bsum[1])) * as * bs[1]
				orow[j+2] = float32(int64(s2)+acorr-q8Bias*int64(bsum[2])) * as * bs[2]
				orow[j+3] = float32(int64(s3)+acorr-q8Bias*int64(bsum[3])) * as * bs[3]
			} else {
				ss := [q8Panel]uint64{s0, s1, s2, s3}
				for c := 0; j+c < n; c++ {
					orow[j+c] = float32(int64(ss[c])+acorr-q8Bias*int64(bSums[j+c])) * as * bScales[j+c]
				}
			}
		}
	}
}

// dotQ8 is the tail-channel int8 dot product with four partial int32
// accumulators over a 4-wide k unroll. Integer addition is associative, so
// the split changes nothing.
func dotQ8(x, y []int8) int32 {
	k := min(len(x), len(y))
	var s0, s1, s2, s3 int32
	p := 0
	for ; p+4 <= k; p += 4 {
		xs := x[p : p+4 : p+4]
		ys := y[p : p+4 : p+4]
		s0 += int32(xs[0]) * int32(ys[0])
		s1 += int32(xs[1]) * int32(ys[1])
		s2 += int32(xs[2]) * int32(ys[2])
		s3 += int32(xs[3]) * int32(ys[3])
	}
	for ; p < k; p++ {
		s0 += int32(x[p]) * int32(y[p])
	}
	return s0 + s1 + s2 + s3
}
