// C code emission — prints the OpenMP C equivalent of a compiled plan,
// in the shape of the paper's Fig. 8: pooled live-out allocations with
// user comments, collapse(d)-annotated tile loops, per-thread scratchpad
// declarations sized from the plan, clamped intra-tile loops per stage,
// and pool_deallocate calls at each array's last use.
//
// The emitted text is what PolyMG's ISL backend would write out; this
// repository executes the same schedule directly (runtime::Executor), so
// the emitter exists for inspection, tests of the plan's structure, and
// the Table 3 generated-lines-of-code accounting.
#pragma once

#include <string>

#include "polymg/opt/plan.hpp"

namespace polymg::codegen {

/// Emit the full pipeline function. `name` becomes the C function name.
std::string emit_c(const opt::CompiledPipeline& plan,
                   const std::string& name);

/// Count the lines of the emitted program (Table 3's "Lines of gen" ).
int generated_loc(const opt::CompiledPipeline& plan);

}  // namespace polymg::codegen
