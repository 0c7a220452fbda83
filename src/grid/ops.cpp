#include "polymg/grid/ops.hpp"

#include <cmath>
#include <cstring>
#include <type_traits>

#include "polymg/common/parallel.hpp"

namespace polymg::grid {

namespace {

/// Regions below this many points copy/add serially: the solve path
/// copies back after every cycle, and on coarse grids the fork/join would
/// cost more than the rows (the same grain as health::has_nonfinite).
inline constexpr index_t kParallelGrain = index_t{1} << 15;

using Point = std::array<index_t, kMaxDims>;

/// Element offset of point `p` in `v`.
index_t offset_of(const View& v, const Point& p) {
  index_t off = 0;
  for (int d = 0; d < v.ndim; ++d) off += (p[d] - v.origin[d]) * v.stride[d];
  return off;
}

/// Typed element pointer of `v` at point `p`.
template <typename T>
T* ptr_at(const View& v, const Point& p) {
  return reinterpret_cast<T*>(v.ptr) + offset_of(v, p);
}

void check_view(const View& v, const Box& region) {
  PMG_CHECK(region.ndim() >= 1 && region.ndim() <= kMaxDims,
            "unsupported ndim " << region.ndim());
  PMG_CHECK(v.ndim == region.ndim(),
            "grid op ndim mismatch: view " << v.ndim << " vs region "
                                           << region.ndim());
  PMG_CHECK(v.stride[v.ndim - 1] == 1,
            "grid op requires a contiguous last dimension");
}

/// Call fn(p) with p the first point of every row of `region` whose
/// dim-0 coordinate lies in [lo0, hi0], in row-major order. A row spans
/// the whole last dimension of `region`, which is contiguous in every
/// view, so fn works on one stride-1 run of region.dim(last).size()
/// elements. In 1-d the region is a single row and [lo0, hi0] is ignored.
template <typename Fn>
void for_each_row(const Box& region, index_t lo0, index_t hi0, Fn&& fn) {
  const int nd = region.ndim();
  Point p{};
  p[nd - 1] = region.dim(nd - 1).lo;
  if (nd == 1) {
    fn(p);
    return;
  }
  for (index_t i = lo0; i <= hi0; ++i) {
    p[0] = i;
    if (nd == 2) {
      fn(p);
      continue;
    }
    for (index_t j = region.dim(1).lo; j <= region.dim(1).hi; ++j) {
      p[1] = j;
      fn(p);
    }
  }
}

/// Apply row(d, s, n) to every row of `region`, d and s typed pointers to
/// the row's first point in dst and src, n the row length. With
/// `may_fork`, a top-level call on a region at or above the grain splits
/// dim 0 (rows in 2-d, planes in 3-d) across the team; the rows are
/// disjoint, so the split changes no result. Inside an enclosing parallel
/// region the rows run serially on the calling thread.
template <typename D, typename S, typename Row>
void rows2(const View& dst, const View& src, const Box& region, bool may_fork,
           Row& row) {
  const index_t n = region.dim(region.ndim() - 1).size();
  const auto slices = [&](index_t lo0, index_t hi0) {
    for_each_row(region, lo0, hi0, [&](const Point& p) {
      row(ptr_at<D>(dst, p), ptr_at<const S>(src, p), n);
    });
  };
  const index_t lo0 = region.dim(0).lo;
  const index_t hi0 = region.dim(0).hi;
  if (may_fork && region.ndim() >= 2 && region.count() >= kParallelGrain &&
      !in_parallel()) {
    note_parallel_region();
#pragma omp parallel for schedule(static)
    for (index_t i = lo0; i <= hi0; ++i) {
      slices(i, i);
      tsan_join_release();
    }
    tsan_join_acquire();
    return;
  }
  slices(lo0, hi0);
}

/// rows2 with the element types chosen once from the two views' dtypes.
/// `row` is generic over the (D, S) pointer pair.
template <typename Row>
void dispatch2(const View& dst, const View& src, const Box& region,
               bool may_fork, Row row) {
  if (region.empty()) return;
  check_view(dst, region);
  check_view(src, region);
  const bool d64 = dst.dtype == DType::F64;
  const bool s64 = src.dtype == DType::F64;
  if (d64 && s64) {
    rows2<double, double>(dst, src, region, may_fork, row);
  } else if (d64) {
    rows2<double, float>(dst, src, region, may_fork, row);
  } else if (s64) {
    rows2<float, double>(dst, src, region, may_fork, row);
  } else {
    rows2<float, float>(dst, src, region, may_fork, row);
  }
}

/// Serially apply row(p, q, n) to every row of `region`, p the row's
/// first point and q a typed pointer to it in v.
template <typename T, typename Row>
void rows1(const View& v, const Box& region, Row& row) {
  const index_t n = region.dim(region.ndim() - 1).size();
  for_each_row(region, region.dim(0).lo, region.dim(0).hi,
               [&](const Point& p) { row(p, ptr_at<T>(v, p), n); });
}

/// rows1 with the element type chosen once from the view's dtype.
template <typename Row>
void dispatch1(const View& v, const Box& region, Row row) {
  if (region.empty()) return;
  check_view(v, region);
  if (v.dtype == DType::F64) {
    rows1<double>(v, region, row);
  } else {
    rows1<float>(v, region, row);
  }
}

}  // namespace

Buffer make_grid(const Box& domain) {
  Buffer b(static_cast<std::size_t>(domain.count()));
  b.fill(0.0);
  return b;
}

BufferF32 make_grid_f32(const Box& domain) {
  BufferF32 b(static_cast<std::size_t>(domain.count()));
  b.fill(0.0f);
  return b;
}

void fill_region(View v, const Box& region,
                 const std::function<double(index_t, index_t, index_t)>& f) {
  const int last = region.ndim() - 1;
  dispatch1(v, region, [&](Point p, auto* q, index_t n) {
    using T = std::remove_pointer_t<decltype(q)>;
    for (index_t x = 0; x < n; ++x, ++p[last]) {
      q[x] = static_cast<T>(f(p[0], p[1], p[2]));
    }
  });
}

void copy_region(View dst, View src, const Box& region) {
  dispatch2(dst, src, region, /*may_fork=*/true,
            [](auto* d, const auto* s, index_t n) {
              using D = std::remove_pointer_t<decltype(d)>;
              using S = std::remove_const_t<
                  std::remove_pointer_t<decltype(s)>>;
              if constexpr (std::is_same_v<D, S>) {
                // memmove: a view copied onto itself stays a no-op.
                std::memmove(d, s, static_cast<std::size_t>(n) * sizeof(D));
              } else {
                for (index_t x = 0; x < n; ++x) d[x] = static_cast<D>(s[x]);
              }
            });
}

void add_region(View dst, View src, const Box& region) {
  dispatch2(dst, src, region, /*may_fork=*/true,
            [](auto* d, const auto* s, index_t n) {
              using D = std::remove_pointer_t<decltype(d)>;
              for (index_t x = 0; x < n; ++x) {
                d[x] = static_cast<D>(static_cast<double>(d[x]) +
                                      static_cast<double>(s[x]));
              }
            });
}

double max_norm(View v, const Box& region) {
  // std::max(m, NaN) silently keeps m, so a poisoned field would report
  // a healthy norm; propagate NaN explicitly instead.
  double m = 0.0;
  dispatch1(v, region, [&](const Point&, const auto* q, index_t n) {
    for (index_t x = 0; x < n; ++x) {
      const double a = std::abs(static_cast<double>(q[x]));
      if (a > m || a != a) m = a;
    }
  });
  return m;
}

double l2_norm(View v, const Box& region) {
  double s = 0.0;
  dispatch1(v, region, [&](const Point&, const auto* q, index_t n) {
    for (index_t x = 0; x < n; ++x) {
      const double a = static_cast<double>(q[x]);
      s += a * a;
    }
  });
  return std::sqrt(s);
}

double max_diff(View a, View b, const Box& region) {
  // NaN-propagating for the same reason as max_norm.
  double m = 0.0;
  dispatch2(a, b, region, /*may_fork=*/false,
            [&](const auto* p, const auto* q, index_t n) {
              for (index_t x = 0; x < n; ++x) {
                const double d = std::abs(static_cast<double>(p[x]) -
                                          static_cast<double>(q[x]));
                if (d > m || d != d) m = d;
              }
            });
  return m;
}

}  // namespace polymg::grid
