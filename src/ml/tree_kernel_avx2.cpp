// AVX2 quantized descent kernel: 128 rows per block as sixteen 8-lane
// vectors of 32-bit node indices over a pre-binned uint16 batch.
//
// Why sixteen vectors: a single vector's descent is a serial
// gather -> compare -> advance chain (tens of cycles per level), far
// longer than a gather's issue cost. Sixteen independent chains per
// block keep the load ports busy while each chain waits out its own
// latency. The index state lives in small arrays whose constant-trip
// loops the compiler unrolls; spilled vectors cost an L1 round-trip,
// far cheaper than an idle gather chain. Short remainders run a
// 16-row pass, then the scalar tail.
//
// Bit-identicality with the scalar float kernel: the rank compare is
// exact by construction (see FlatForest::FinalizeQuantized), index
// arithmetic is exact, and the accumulation is an explicit
// _mm256_mul_pd followed by _mm256_add_pd — the same one-rounding
// multiply and one-rounding add as `out[i] += scale * value[idx]`,
// never contracted into an FMA (this TU is compiled with -mavx2 only,
// not -mfma).
#include "ml/tree_kernel_simd.h"

#if defined(GAUGUR_SIMD_X86)

#include <immintrin.h>

// GCC 12 defines the unmasked epi32 gathers in terms of the masked form
// with an uninitialized pass-through operand and then warns about it
// (GCC PR105593). The operand is fully overwritten under the all-ones
// mask, so the warning is a false positive.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace gaugur::ml::detail {

namespace {

/// Quantized block: V vectors of eight rows each (32-bit lanes). A step
/// needs the node's packed (feature << 16 | rank) meta word, its child
/// index, and the row's bin id, then a branchless advance on integers:
/// `child - (bin > rank ? -1 : 0)`. Signed epi32 compare is exact
/// because bins and ranks both live in [0, 65535]. Leaf rank 0xFFFF
/// exceeds every bin id (edges are capped at 65534), so leaf records
/// keep adding 0 exactly like their +inf float thresholds.
///
/// The bin id is always a scale-2 gather over the uint16 bin matrix
/// (the low 16 bits of each 4-byte load are the bin, the high 16 are
/// the next element and get masked off — the caller pads the bin buffer
/// so the last element's 4-byte read stays in bounds). The meta/child
/// words, though, only need gathers on WIDE levels. The level-ordered
/// layout gives each level one contiguous segment, and the first node's
/// child is by construction the next level's base, so the kernel walks
/// segment bases with a scalar load per level and knows every level's
/// node count. A level of <= 8 nodes fits one register: load the
/// segment once per block and let each vector pick its lanes with
/// vpermd (selector = idx - base; 1 uop instead of an 8-lane gather).
/// <= 16 nodes take two registers and a blend on selector bit 3 (vpermd
/// only reads the selector's low 3 bits, so the same selector indexes
/// both halves). Since every tree's levels 0..3 have at most 8 nodes
/// and level 4 at most 16, a depth-5 boosting stage descends with no
/// meta/child gathers at all — only the unavoidable per-row bin gather,
/// one per step for eight rows.
template <int V>
__attribute__((always_inline)) inline void DescendQuantBlock(
    const int* meta, const int* child, const double* value,
    std::int32_t root, std::int32_t levels, const int* bins_i32, int base,
    int cols, double* out, __m256d vscale) {
  const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
  const __m256i lane_off =
      _mm256_set_epi32(7 * cols, 6 * cols, 5 * cols, 4 * cols, 3 * cols,
                       2 * cols, cols, 0);
  const __m256i vec_step = _mm256_set1_epi32(8 * cols);

  __m256i row[V];
  row[0] = _mm256_add_epi32(_mm256_set1_epi32(base), lane_off);
  for (int u = 1; u < V; ++u) {
    row[u] = _mm256_add_epi32(row[u - 1], vec_step);
  }
  __m256i idx[V];
  const __m256i vroot = _mm256_set1_epi32(root);
  for (int u = 0; u < V; ++u) idx[u] = vroot;
  std::int32_t lbase = root;
  for (std::int32_t d = 0; d < levels; ++d) {
    // First node's child == next level's base (adjacent-children /
    // chained-leaf construction), so the segment width is free.
    const std::int32_t nbase = child[lbase];
    const std::int32_t lsize = nbase - lbase;
    const __m256i vbase = _mm256_set1_epi32(lbase);
    if (lsize == 1) {
      // Single-node level (every root; chained-leaf spines): the node
      // word is a scalar — broadcast it, no selector or permute at all.
      const auto mw = static_cast<std::uint32_t>(meta[lbase]);
      const __m256i rank = _mm256_set1_epi32(static_cast<int>(mw & 0xFFFFu));
      const __m256i feat = _mm256_set1_epi32(static_cast<int>(mw >> 16));
      const __m256i ch = _mm256_set1_epi32(child[lbase]);
      for (int u = 0; u < V; ++u) {
        const __m256i braw = _mm256_i32gather_epi32(
            bins_i32, _mm256_add_epi32(row[u], feat), 2);
        const __m256i bin = _mm256_and_si256(braw, lo16);
        idx[u] = _mm256_sub_epi32(ch, _mm256_cmpgt_epi32(bin, rank));
      }
    } else if (lsize <= 8) {
      const __m256i qm = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(meta + lbase));
      const __m256i qc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(child + lbase));
      for (int u = 0; u < V; ++u) {
        const __m256i sel = _mm256_sub_epi32(idx[u], vbase);
        const __m256i m = _mm256_permutevar8x32_epi32(qm, sel);
        const __m256i ch = _mm256_permutevar8x32_epi32(qc, sel);
        const __m256i feat = _mm256_srli_epi32(m, 16);
        const __m256i rank = _mm256_and_si256(m, lo16);
        const __m256i braw = _mm256_i32gather_epi32(
            bins_i32, _mm256_add_epi32(row[u], feat), 2);
        const __m256i bin = _mm256_and_si256(braw, lo16);
        // child + (bin > rank): the compare mask lanes are 0 or -1.
        idx[u] = _mm256_sub_epi32(ch, _mm256_cmpgt_epi32(bin, rank));
      }
    } else if (lsize <= 16) {
      const __m256i seven = _mm256_set1_epi32(7);
      const __m256i qm0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(meta + lbase));
      const __m256i qm1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(meta + lbase + 8));
      const __m256i qc0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(child + lbase));
      const __m256i qc1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(child + lbase + 8));
      for (int u = 0; u < V; ++u) {
        const __m256i sel = _mm256_sub_epi32(idx[u], vbase);
        const __m256i hi = _mm256_cmpgt_epi32(sel, seven);
        const __m256i m = _mm256_blendv_epi8(
            _mm256_permutevar8x32_epi32(qm0, sel),
            _mm256_permutevar8x32_epi32(qm1, sel), hi);
        const __m256i ch = _mm256_blendv_epi8(
            _mm256_permutevar8x32_epi32(qc0, sel),
            _mm256_permutevar8x32_epi32(qc1, sel), hi);
        const __m256i feat = _mm256_srli_epi32(m, 16);
        const __m256i rank = _mm256_and_si256(m, lo16);
        const __m256i braw = _mm256_i32gather_epi32(
            bins_i32, _mm256_add_epi32(row[u], feat), 2);
        const __m256i bin = _mm256_and_si256(braw, lo16);
        idx[u] = _mm256_sub_epi32(ch, _mm256_cmpgt_epi32(bin, rank));
      }
    } else {
      for (int u = 0; u < V; ++u) {
        const __m256i m = _mm256_i32gather_epi32(meta, idx[u], 4);
        const __m256i ch = _mm256_i32gather_epi32(child, idx[u], 4);
        const __m256i feat = _mm256_srli_epi32(m, 16);
        const __m256i rank = _mm256_and_si256(m, lo16);
        const __m256i braw = _mm256_i32gather_epi32(
            bins_i32, _mm256_add_epi32(row[u], feat), 2);
        const __m256i bin = _mm256_and_si256(braw, lo16);
        idx[u] = _mm256_sub_epi32(ch, _mm256_cmpgt_epi32(bin, rank));
      }
    }
    lbase = nbase;
  }
  for (int u = 0; u < V; ++u) {
    const __m128i lo = _mm256_castsi256_si128(idx[u]);
    const __m128i hi = _mm256_extracti128_si256(idx[u], 1);
    const __m256d leaf_lo = _mm256_i32gather_pd(value, lo, 8);
    const __m256d leaf_hi = _mm256_i32gather_pd(value, hi, 8);
    _mm256_storeu_pd(
        out + 8 * u,
        _mm256_add_pd(_mm256_loadu_pd(out + 8 * u),
                      _mm256_mul_pd(vscale, leaf_lo)));
    _mm256_storeu_pd(
        out + 8 * u + 4,
        _mm256_add_pd(_mm256_loadu_pd(out + 8 * u + 4),
                      _mm256_mul_pd(vscale, leaf_hi)));
  }
}

}  // namespace

void AccumulateTreeQuantAvx2(const std::int32_t* meta,
                             const std::int32_t* child, const double* value,
                             std::int32_t root, std::int32_t levels,
                             const std::uint16_t* bins, std::size_t rows,
                             std::size_t cols, double* out, double scale) {
  const auto* m32 = reinterpret_cast<const int*>(meta);
  const auto* c32 = reinterpret_cast<const int*>(child);
  const auto* b32 = reinterpret_cast<const int*>(bins);
  const __m256d vscale = _mm256_set1_pd(scale);
  const int c = static_cast<int>(cols);

  // 128-row main block: sixteen independent 8-row descent chains hide
  // the serial gather -> compare -> advance latency per chain.
  std::size_t i = 0;
  for (; i + 128 <= rows; i += 128) {
    DescendQuantBlock<16>(m32, c32, value, root, levels, b32,
                          static_cast<int>(i * cols), c, out + i, vscale);
  }
  for (; i + 16 <= rows; i += 16) {
    DescendQuantBlock<2>(m32, c32, value, root, levels, b32,
                         static_cast<int>(i * cols), c, out + i, vscale);
  }
  // Scalar quantized remainder: identical recurrence on the bin ids.
  for (; i < rows; ++i) {
    const std::uint16_t* row = bins + i * cols;
    std::int32_t idx = root;
    for (std::int32_t d = 0; d < levels; ++d) {
      const auto m = static_cast<std::uint32_t>(meta[idx]);
      idx = child[idx] +
            static_cast<std::int32_t>(row[m >> 16] > (m & 0xFFFFu));
    }
    out[i] += scale * value[idx];
  }
}

}  // namespace gaugur::ml::detail

#endif  // GAUGUR_SIMD_X86
