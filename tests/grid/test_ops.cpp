#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "polymg/common/parallel.hpp"
#include "polymg/grid/ops.hpp"

namespace polymg::grid {
namespace {

TEST(Ops, MakeGridZeroFilled) {
  const Box dom = Box::cube(2, 0, 9);
  Buffer b = make_grid(dom);
  EXPECT_EQ(b.size(), 100u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
}

TEST(Ops, FillRegionAndNorms) {
  const Box dom = Box::cube(2, 0, 4);
  Buffer b = make_grid(dom);
  View v = View::over(b.data(), dom);
  fill_region(v, Box::cube(2, 1, 3), [](index_t i, index_t j, index_t) {
    return static_cast<double>(i * 10 + j);
  });
  EXPECT_EQ(v.at2(2, 3), 23.0);
  EXPECT_EQ(v.at2(0, 0), 0.0);  // outside region untouched
  EXPECT_EQ(max_norm(v, dom), 33.0);
  EXPECT_NEAR(l2_norm(v, Box{{1, 1}, {1, 2}}), std::sqrt(11. * 11 + 12 * 12),
              1e-12);
}

TEST(Ops, CopyAndDiff) {
  const Box dom = Box::cube(3, 0, 3);
  Buffer a = make_grid(dom), b = make_grid(dom);
  View va = View::over(a.data(), dom), vb = View::over(b.data(), dom);
  fill_region(va, dom, [](index_t i, index_t j, index_t k) {
    return static_cast<double>(i + j + k);
  });
  copy_region(vb, va, dom);
  EXPECT_EQ(max_diff(va, vb, dom), 0.0);
  vb.at3(1, 1, 1) += 0.5;
  EXPECT_EQ(max_diff(va, vb, dom), 0.5);
}

// ---------------------------------------------------------------------
// Bulk copy against a per-point reference: every ndim, offset
// sub-regions of views with non-zero origins (tile-scratch style, and
// dst/src laid out differently), below and above the parallel grain, top
// level and from inside an enclosing parallel region. The reference
// copies one point at a time through View::at, so "bit-identical" pins
// the row-wise op to the per-point semantics.
// ---------------------------------------------------------------------

/// Points of a region at which copy_region forks (ops.cpp).
constexpr index_t kGrain = index_t{1} << 15;

/// Backing store for one view over `box`.
struct Field {
  Box box;
  std::vector<double> raw;

  explicit Field(const Box& b)
      : box(b), raw(static_cast<std::size_t>(b.count())) {}

  View view() { return View::over(raw.data(), box); }
  bool same_bits(const Field& o) const {
    return raw.size() == o.raw.size() &&
           std::memcmp(raw.data(), o.raw.data(),
                       raw.size() * sizeof(double)) == 0;
  }
};

/// Fill every element with distinct pseudo-random values.
void scramble(Field& f, std::uint64_t seed) {
  for (double& x : f.raw) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(seed >> 11) * 0x1.0p-53;
    x = (u - 0.5) * 1e3 + 1.0 / 3.0;
  }
}

template <typename Fn>
void for_points(const Box& r, Fn fn) {
  std::array<index_t, kMaxDims> lo{}, hi{};
  for (int d = 0; d < r.ndim(); ++d) {
    lo[d] = r.dim(d).lo;
    hi[d] = r.dim(d).hi;
  }
  for (index_t i = lo[0]; i <= hi[0]; ++i) {
    for (index_t j = lo[1]; j <= hi[1]; ++j) {
      for (index_t k = lo[2]; k <= hi[2]; ++k) fn({i, j, k});
    }
  }
}

/// `b` grown by lo_pad below and hi_pad above in every dimension.
Box padded(const Box& b, index_t lo_pad, index_t hi_pad) {
  Box p(b.ndim());
  for (int d = 0; d < b.ndim(); ++d) {
    p.dim(d) = {b.dim(d).lo - lo_pad, b.dim(d).hi + hi_pad};
  }
  return p;
}

enum class Caller { TopLevel, InsideRegion };

/// Copy src to dst over `region`, from the top level or from one thread
/// of an enclosing team (a tile-level caller).
void run(Caller caller, View dst, View src, const Box& region) {
  if (caller == Caller::TopLevel) {
    copy_region(dst, src, region);
    return;
  }
#pragma omp parallel num_threads(4)
  {
    if (thread_id() == 0) copy_region(dst, src, region);
    tsan_join_release();
  }
  tsan_join_acquire();
}

struct BulkCase {
  int ndim;
  bool large;  // region at or above the parallel grain
};

/// One copy_region call checked bit-for-bit against the per-point
/// reference, and its fork count against `forks_expected`.
void check_bulk(const Box& region, const Box& dst_box, const Box& src_box,
                Caller caller, bool forks_expected) {
  Field src(src_box), dst(dst_box), ref(dst_box);
  scramble(src, 11);
  scramble(dst, 29);
  ref.raw = dst.raw;
  View rv = ref.view();
  const View sv = src.view();
  for_points(region, [&](const std::array<index_t, kMaxDims>& p) {
    rv.at(p) = sv.at(p);
  });

  const std::uint64_t before = parallel_regions_entered();
  run(caller, dst.view(), src.view(), region);
  const std::uint64_t forks = parallel_regions_entered() - before;

  EXPECT_TRUE(dst.same_bits(ref));
  EXPECT_EQ(forks, forks_expected ? 1u : 0u);
}

TEST(BulkOps, CopyMatchesPerPointReference) {
  const BulkCase cases[] = {{1, false}, {1, true},  {2, false},
                            {2, true},  {3, false}, {3, true}};
  for (const BulkCase& c : cases) {
    // Region sides: small 1-d/2-d/3-d = 37/19/7, large = 40000/206/34.
    const index_t side =
        c.large ? (c.ndim == 1 ? 40000 : c.ndim == 2 ? 206 : 34)
                : (c.ndim == 1 ? 37 : c.ndim == 2 ? 19 : 7);
    const Box region = Box::cube(c.ndim, 5, 5 + side - 1);
    ASSERT_EQ(region.count() >= kGrain, c.large);
    // Padded: different margins, so dst and src disagree on origin and
    // strides. Exact: both views cover just the region, so their rows
    // lie end to end.
    for (const bool exact : {false, true}) {
      const Box dst_box = exact ? region : padded(region, 2, 1);
      const Box src_box = exact ? region : padded(region, 1, 3);
      for (const Caller caller : {Caller::TopLevel, Caller::InsideRegion}) {
        SCOPED_TRACE(::testing::Message()
                     << c.ndim << "-d side " << side
                     << (exact ? " exact" : " padded")
                     << (caller == Caller::TopLevel ? " top-level"
                                                    : " in-region"));
        // One fork for a top-level call on a multi-row region at or
        // above the grain; none below it, in 1-d (a single row), or
        // inside a region.
        check_bulk(region, dst_box, src_box, caller,
                   caller == Caller::TopLevel && c.large && c.ndim >= 2);
      }
    }
  }
}

TEST(BulkOps, CopyPassesNonFiniteValuesThrough) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Box region = Box::cube(2, 0, 2);
  Field src(region), dst(region);
  std::fill(src.raw.begin(), src.raw.end(), 1.5);
  src.raw[0] = nan;
  src.raw[4] = inf;
  src.raw[8] = -inf;
  copy_region(dst.view(), src.view(), region);
  EXPECT_TRUE(std::isnan(dst.raw[0]));
  EXPECT_EQ(dst.raw[4], inf);
  EXPECT_EQ(dst.raw[8], -inf);
  EXPECT_EQ(dst.raw[1], 1.5);
  EXPECT_TRUE(dst.same_bits(src));  // NaN payloads too
}

TEST(BulkOps, NormsMatchPerPointReference) {
  const Box dom = Box::cube(3, -2, 9);
  const Box region = Box::cube(3, 0, 7);
  Field a(dom), b(dom);
  scramble(a, 3);
  scramble(b, 5);
  const View va = a.view(), vb = b.view();
  double sum = 0.0, mx = 0.0, md = 0.0;
  for_points(region, [&](const std::array<index_t, kMaxDims>& p) {
    const double x = va.at(p);
    sum += x * x;
    mx = std::max(mx, std::abs(x));
    md = std::max(md, std::abs(x - vb.at(p)));
  });
  EXPECT_EQ(l2_norm(va, region), std::sqrt(sum));
  EXPECT_EQ(max_norm(va, region), mx);
  EXPECT_EQ(max_diff(va, vb, region), md);
  // NaN anywhere in the region poisons both max-norms.
  View pa = a.view();
  pa.at({3, 4, 5}) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(max_norm(pa, region)));
  EXPECT_TRUE(std::isnan(max_diff(pa, vb, region)));
  EXPECT_TRUE(std::isnan(max_diff(vb, pa, region)));
}

}  // namespace
}  // namespace polymg::grid
