// Element type tag of grid storage.
//
// PolyMG stores every grid as IEEE double, so DType has one value. It
// and dtype_size exist only so the benchmark driver in perfbench/ keeps
// compiling (it sizes plan traffic with them); drop both, together with
// CompiledPipeline::dtype_of_func/dtype_of_external, once that driver
// stops calling them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace polymg::grid {

enum class DType : std::uint8_t {
  F64 = 0,  ///< IEEE binary64, the only storage type
};

constexpr std::size_t dtype_size(DType) { return sizeof(double); }

}  // namespace polymg::grid
