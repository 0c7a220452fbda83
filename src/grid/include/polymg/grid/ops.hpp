// Bulk grid ops: fills, norms, comparisons, region copies and adds.
//
// copy_region and add_region sit on every solve path — each opt+ cycle
// copies (or, under mixed precision, adds) the pipeline output back into
// the iterate — so they run at memory bandwidth: the region is walked one
// contiguous row (its last dimension, stride 1 in every PolyMG view) at a
// time, the dtype pair is chosen once per call, and a same-dtype copy row
// is a single memmove. A top-level call on a region of at least 1 << 15
// points splits dim 0 (rows in 2-d, planes in 3-d) across the team with
// one parallel region; smaller regions, 1-d regions (a single row) and
// calls made from inside a parallel region run serially on the caller.
// Fills and norms walk the same rows serially, in row-major order.
//
// Every result is bit-identical to a point-by-point loop: loads promote
// to double, stores round once, adds accumulate in double, l2_norm sums
// in row-major order, and the max-norms propagate NaN. The parallel
// split only partitions disjoint rows, so it changes no result.
#pragma once

#include <functional>

#include "polymg/grid/buffer.hpp"
#include "polymg/grid/view.hpp"

namespace polymg::grid {

/// Allocate a buffer sized for `domain` and return it zero-filled.
Buffer make_grid(const Box& domain);

/// Float variant: a zero-filled F32 buffer sized for `domain`. View it
/// with View::over(buf.data(), domain), which tags the view F32.
BufferF32 make_grid_f32(const Box& domain);

/// Set every point of `region` (must lie inside the view's addressable
/// area) to f(i, j[, k]).
void fill_region(View v, const Box& region,
                 const std::function<double(index_t, index_t, index_t)>& f);

/// Copy `region` from src to dst (both views must cover it). The views
/// may differ in dtype: loads promote to double, stores round once —
/// so an F64 -> F32 copy is the canonical demotion and F32 -> F64 the
/// canonical promotion (exact, every float is representable).
void copy_region(View dst, View src, const Box& region);

/// dst += src over `region`, accumulating in double regardless of
/// either view's storage dtype (the mixed-precision outer correction:
/// a double iterate absorbing a float-path correction loses nothing).
void add_region(View dst, View src, const Box& region);

/// Max-norm of a region.
double max_norm(View v, const Box& region);

/// L2 norm (sqrt of sum of squares) of a region.
double l2_norm(View v, const Box& region);

/// Max absolute difference between two views over a region.
double max_diff(View a, View b, const Box& region);

}  // namespace polymg::grid
