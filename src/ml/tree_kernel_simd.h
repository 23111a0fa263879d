// Internal contract between FlatForest's dispatcher (tree_kernel.cpp)
// and the AVX2 quantized descent (tree_kernel_avx2.cpp, compiled with
// -mavx2). That TU exists only when the build enables GAUGUR_SIMD_X86;
// the dispatcher never calls it on a CPU without AVX2.
//
// The kernel implements the same operation as the portable scalar float
// block descent in tree_kernel.cpp, over the rows of one pre-binned
// row-major batch against one tree:
//
//   for each row i: walk `levels` steps from `root` following
//     idx = child[idx] + (bins[row][meta[idx] >> 16] >
//                         (meta[idx] & 0xFFFF))
//   then out[i] += scale * value[idx]   (separate multiply and add)
//
// and must keep the results bit-identical to the float kernel: binning
// snaps every threshold to its own edge, so each rank compare decides
// exactly like `x > threshold`; no FMA contraction in the accumulation;
// rows accumulated in index order.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gaugur::ml::detail {

#if defined(GAUGUR_SIMD_X86)

/// Quantized descent over a pre-binned batch (uint16 bin ids, row-major,
/// padded with two trailing elements for the 32-bit bin gather's 4-byte
/// read). `meta[i]` packs (feature << 16) | threshold_rank and
/// `child[i]` the left-child index — the 8-byte SoA layout built by
/// FlatForest::FinalizeQuantized. `rows * cols` must fit an int32.
void AccumulateTreeQuantAvx2(const std::int32_t* meta,
                             const std::int32_t* child, const double* value,
                             std::int32_t root, std::int32_t levels,
                             const std::uint16_t* bins, std::size_t rows,
                             std::size_t cols, double* out, double scale);

#endif  // GAUGUR_SIMD_X86

}  // namespace gaugur::ml::detail
